"""Shared measurement helpers for the perfbench workloads.

Everything here observes the serving stack from outside: quantiles over
raw samples, registry-snapshot deltas, bench-side spans, the host record
and the software roofline denominator, bounded teardown and the leak
check.  Nothing in ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

#: Stage histograms the engine records when telemetry is on, by the
#: per-layer metric they feed.
STAGE_HISTOGRAMS = {
    "predict": "sofa_stage_predict_seconds",
    "select": "sofa_stage_select_seconds",
    "predict_select": "sofa_stage_predict_select_fused_seconds",
    "kv_gather": "sofa_stage_kv_gather_seconds",
    "stream": "sofa_stage_stream_seconds",
}


# ------------------------------------------------------------------ quantiles
def nearest_rank(samples: Iterable[float], q: float) -> float:
    """The ``q``-quantile of raw samples by nearest rank (no interpolation)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples_s: list[float], tail_q: float) -> dict[str, float]:
    """p50 and the workload's tail quantile in ms, by nearest rank over the
    raw samples, with the sample counts they rest on."""
    return {
        "n": len(samples_s),
        "tail_q": tail_q,
        "beyond_tail": len(samples_s) - math.ceil(tail_q * len(samples_s)),
        "p50_ms": 1e3 * nearest_rank(samples_s, 0.50),
        "tail_ms": 1e3 * nearest_rank(samples_s, tail_q),
    }


def windowed_rate(done_s: list[float], k: int) -> float:
    """Median completions/s over consecutive windows of ``k`` completions.

    ``done_s`` holds completion times from the phase start.  The median
    over windows keeps a transient stall on the host from moving the
    figure; a window boundary never splits a count, so it is not quantized.
    """
    done = sorted(done_s)
    edges = [0.0] + done[k - 1::k]
    rates = [k / (b - a) for a, b in zip(edges, edges[1:]) if b > a]
    if not rates:
        raise ValueError(f"fewer than {k} completions")
    return float(np.median(rates))


def same_result(result, ref) -> bool:
    """Bit-for-bit equality of two attention results (output, selection,
    assurance triggers)."""
    return (result.output.tobytes() == ref.output.tobytes()
            and np.array_equal(result.selected, ref.selected)
            and result.assurance_triggers == ref.assurance_triggers)


# ---------------------------------------------------------------- phase tally
@dataclass
class Phase:
    """Requests sent / answered correctly / failed in one measured phase."""

    name: str
    sent: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: completion times from the phase start, for windowed throughput
    done_s: list[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.sent - self.failed


# -------------------------------------------------------------- bench spans
class SpanLog:
    """Bench-side spans: durations per layer name plus Chrome events.

    A span is recorded around a call into a public function of one layer;
    ``totals`` keeps the running sum and count per name, ``events`` the
    individual spans for the Chrome trace (bounded, oldest kept).
    """

    def __init__(self, capacity: int = 50_000):
        self.capacity = capacity
        self.totals: dict[str, list[float]] = {}
        self.events: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def add(self, name: str, start_perf: float, end_perf: float) -> None:
        duration = end_perf - start_perf
        with self._lock:
            total = self.totals.setdefault(name, [0.0, 0])
            total[0] += duration
            total[1] += 1
            if len(self.events) < self.capacity:
                self.events.append({
                    "name": name, "cat": "perfbench", "ph": "X",
                    "ts": (_WALL_AT_PERF0 + start_perf) * 1e6,
                    "dur": duration * 1e6, "pid": os.getpid(),
                    "tid": threading.get_ident(),
                })

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, t0, time.perf_counter())
        return timed

    def mean_ms(self, name: str) -> float:
        total, count = self.totals.get(name, (0.0, 0))
        return 1e3 * total / count if count else 0.0

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0.0, 0))[1])


_WALL_AT_PERF0 = time.time() - time.perf_counter()


# ------------------------------------------------------- registry snapshots
def hist_delta(after: Mapping[str, Any] | None, before: Mapping[str, Any] | None,
               name: str) -> tuple[float, int]:
    """(sum seconds, count) a histogram gained between two snapshots.

    Only sum and count are read - never the buckets - so the figure is an
    exact mean, not a bucket interpolation.
    """
    def read(snap):
        h = ((snap or {}).get("histograms") or {}).get(name)
        return (float(h["sum"]), int(h["count"])) if h else (0.0, 0)

    s1, c1 = read(after)
    s0, c0 = read(before)
    return s1 - s0, c1 - c0


def hist_mean_ms(after, before, name: str) -> float:
    total, count = hist_delta(after, before, name)
    return 1e3 * total / count if count else 0.0


def engine_split(after, before) -> dict[str, float]:
    """The engine's batches, requests and per-batch stage times (ms).

    ``request`` is the request-weighted engine time (queue wait plus the
    execute of the batch that served it); everything else is per batch, as
    :class:`~repro.engine.serving.BatchRecord` reports it.
    """
    batches = hist_delta(after, before, "sofa_engine_execute_seconds")[1]
    out: dict[str, float] = {
        "batches": batches,
        "requests": hist_delta(
            after, before, "sofa_engine_request_latency_seconds")[1],
        "execute": hist_mean_ms(after, before, "sofa_engine_execute_seconds"),
        "queue_wait": hist_mean_ms(
            after, before, "sofa_engine_queue_wait_seconds"),
        "request": hist_mean_ms(
            after, before, "sofa_engine_request_latency_seconds"),
    }
    for key, hist in STAGE_HISTOGRAMS.items():
        total, _ = hist_delta(after, before, hist)
        out[key] = 1e3 * total / batches if batches else 0.0
    out["other"] = out["execute"] - sum(out[k] for k in STAGE_HISTOGRAMS)
    return out


def stage_gops(split: Mapping[str, float], ops: Mapping[str, float]
               ) -> dict[str, float]:
    """Achieved predict and stream op rates (Gop/s) from a split and ops.

    ``ops`` holds per-head counts (see :func:`stage_ops`); ``split`` the
    per-batch stage times.  A fused predict+select stage is charged with
    the ops of both stages, since their time cannot be separated.
    """
    def rate(n_ops: float, ms_per_batch: float) -> float:
        seconds = ms_per_batch * split["batches"] / 1e3
        return n_ops * split["requests"] / seconds / 1e9 if seconds else 0.0

    if split["predict_select"] > 0:
        predict = rate(ops["predict"] + ops["select"], split["predict_select"])
    else:
        predict = rate(ops["predict"], split["predict"])
    return {"predict": predict, "stream": rate(ops["stream"], split["stream"])}


def span_means(records: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Mean duration (ms) per span name over finished obs-plane spans."""
    sums: dict[str, list[float]] = {}
    for record in records:
        total = sums.setdefault(str(record.get("name")), [0.0, 0])
        total[0] += float(record.get("duration_s", 0.0))
        total[1] += 1
    return {name: 1e3 * t / n for name, (t, n) in sums.items()}


def kernel_metrics(split: Mapping[str, float], refs: list, hidden: int
                   ) -> dict[str, float]:
    """engine.* and kernels.* per-layer metrics from a split and results.

    ``refs`` are results of the checked sample (bit-identical to the
    reference): their op counts give the achieved rates, their selections
    and assurance triggers the deterministic counts.
    """
    fused = split["predict_select"] > 0
    gops = stage_gops(split, stage_ops(refs, hidden)) if refs else {}
    return {
        "engine.queue_wait_ms": split["queue_wait"],
        "engine.execute_ms": split["execute"],
        "engine.batch_heads": split["requests"] / max(split["batches"], 1),
        "kernels.predict_ms": split["predict"],
        "kernels.select_ms": split["select"],
        "kernels.predict_select_ms": split["predict_select"] if fused
        else split["predict"] + split["select"],
        "kernels.kv_gather_ms": split["kv_gather"],
        "kernels.stream_ms": split["stream"],
        "kernels.other_ms": split["other"],
        "kernels.predict_gops": gops.get("predict", 0.0),
        "kernels.stream_gops": gops.get("stream", 0.0),
        "kernels.selected_per_row": float(refs[0].selected.shape[-1]) if refs else 0.0,
        "kernels.assurance_triggers": float(sum(r.assurance_triggers for r in refs)),
    }


def kernel_rows(split: Mapping[str, float]) -> list[tuple]:
    """Ledger rows of the pipeline stages (per batch; a request waits for
    the whole batch that serves it)."""
    n = split["batches"]
    rows = [("kernels.predict", n, split["predict"], 0.0, 0),
            ("kernels.select", n, split["select"], 0.0, 0)]
    if split["predict_select"] > 0:
        rows = [("kernels.predict_select (fused)", n, split["predict_select"], 0.0, 0)]
    return rows + [
        ("kernels.kv_gather", n, split["kv_gather"], 0.0, 0),
        ("kernels.stream", n, split["stream"], 0.0, 0),
        ("kernels.other (execute - stages)", n, split["other"], 0.0, 0),
    ]


def cluster_layers(submit_ms: float, n_submits: int, split: Mapping[str, float],
                   spans: list[Mapping[str, Any]], front_after, front_before,
                   stats_after, stats_before) -> tuple[dict, list[tuple]]:
    """cluster.*/codec.* metrics and the ledger rows below ``submit``.

    The rows split one submit into the async bridge, the codec, the
    transport (frames, socket or queue, worker inbox), the worker's own
    message handling, the engine's queue wait and the kernels.  Bridge,
    transport and worker are differences of nested spans and histograms,
    so the rows below a submit add up to it exactly.
    """
    means = span_means(spans)
    rpc = means.get("cluster.rpc", 0.0)
    worker = means.get("worker.request", 0.0)
    enc_s, n_enc = hist_delta(front_after, front_before, "sofa_codec_encode_seconds")
    dec_s, n_dec = hist_delta(front_after, front_before, "sofa_codec_decode_seconds")
    encode_ms = 1e3 * enc_s / n_enc if n_enc else 0.0
    decode_ms = 1e3 * dec_s / n_dec if n_dec else 0.0
    d_req = stats_after.n_requests - stats_before.n_requests
    d_batches = stats_after.n_batches - stats_before.n_batches
    errors = stats_after.n_errors - stats_before.n_errors
    metrics = {
        "cluster.submit_ms": submit_ms,
        "cluster.overhead_ms": submit_ms - split["request"],
        "cluster.batch_heads": d_req / d_batches if d_batches else 0.0,
        "cluster.deduped": float(stats_after.n_deduped),
        "cluster.errors": float(stats_after.n_errors),
        "codec.encode_ms": encode_ms,
        "codec.decode_ms": decode_ms,
    }
    engine_wait = split["request"] - split["execute"]
    rows = [
        ("cluster.bridge (submit, route, poll) [diff]", n_submits,
         submit_ms - rpc - encode_ms - decode_ms, 0.0, errors),
        ("codec (encode_request + decode_result)", n_enc,
         encode_ms + decode_ms, 0.0, 0),
        ("cluster.transport (send, inbox, reply) [diff]", n_submits,
         rpc - worker, rpc - worker, 0),
        ("worker (decode, submit, encode) [diff]", split["requests"],
         worker - split["request"], 0.0, 0),
        ("engine (queue wait) [diff]", split["requests"], engine_wait,
         engine_wait, 0),
    ] + kernel_rows(split)
    return metrics, rows


# ------------------------------------------------------------ stage op counts
def stage_ops(results: Iterable[Any], hidden: int) -> dict[str, float]:
    """Mean per-head op counts of the predict, select and stream stages.

    Counted by the results' own ``StageTrace``/``OpCounter``s, not measured.
    Stage 3's trace also charges the on-demand K and V projections, which
    run in the kv_gather step; they are taken out so ``stream`` counts the
    SU-FA core only (every workload has Dk = Dv).
    """
    from repro.numerics.complexity import matmul_ops

    totals = {"predict": 0.0, "select": 0.0, "stream": 0.0}
    n = 0
    for result in results:
        stage1, stage2, stage3 = result.stages
        unique = len(np.unique(result.selected))
        kv = 2 * matmul_ops(unique, hidden, result.output.shape[1]).total_raw()
        totals["predict"] += stage1.ops.total_raw()
        totals["select"] += stage2.ops.total_raw()
        totals["stream"] += stage3.ops.total_raw() - kv
        n += 1
    return {k: v / n for k, v in totals.items()} if n else totals


# -------------------------------------------------------------- host record
def host_record(seed: int) -> dict[str, Any]:
    """nproc, interpreter, NumPy/BLAS and thread settings, seed."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = str(config["Build Dependencies"]["blas"].get("name", "unknown"))
    except (TypeError, KeyError):
        pass
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
    }
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "seed": seed,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def matmul_gflops(n: int = 384, reps: int = 7) -> float:
    """Host float64 BLAS matmul rate (GFLOP/s, median of ``reps``).

    The software roofline's denominator: what the host's BLAS achieves on
    a dense product, against which the kernels' achieved op rates are read.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    a @ b  # warm the BLAS threads
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        rates.append(2.0 * n ** 3 / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB.

    Every workload runs one worker at a time, so the largest reaped child
    is that worker.  ``ru_maxrss`` is KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------- bounded teardown
#: Bound on each teardown step (gateway stop, cluster shutdown).
TEARDOWN_S = 10.0


def bounded(fn: Callable[[], Any], timeout_s: float) -> str | None:
    """Run ``fn`` on a daemon thread; an error text, or None on success."""
    outcome: list[BaseException] = []

    def body() -> None:
        try:
            fn()
        except BaseException as error:  # noqa: BLE001 - reported to the run
            outcome.append(error)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        return f"did not finish within {timeout_s:.0f} s"
    if outcome:
        return repr(outcome[0])
    return None


async def teardown(errors: list[str], http=(), gateway=None, cluster=None,
                   timeout_s: float = TEARDOWN_S) -> None:
    """Close HTTP clients, the gateway and the cluster, each time-bounded.

    Runs outside the timed region; a step that fails or overruns its bound
    is recorded in ``errors``, which fails the run.
    """
    import asyncio

    for conn in http:
        try:
            await asyncio.wait_for(conn.aclose(), timeout_s)
        except (asyncio.TimeoutError, OSError) as error:
            errors.append(f"http client close: {error!r}")
    if gateway is not None:
        try:
            await asyncio.wait_for(gateway.stop(), timeout_s)
        except asyncio.TimeoutError:
            errors.append(f"gateway stop did not finish within {timeout_s:.0f} s")
    if cluster is not None:
        error = bounded(lambda: cluster.shutdown(timeout_s=timeout_s / 2), timeout_s)
        if error is not None:
            errors.append(f"cluster shutdown: {error}")


def leaked_workers() -> list[str]:
    """Worker processes still alive after teardown (killed and listed)."""
    import multiprocessing as mp

    from repro.cluster.transport import reap_spawned_workers

    leaked = [f"socket worker pid {p.pid}" for p in reap_spawned_workers()]
    for child in mp.active_children():
        child.join(timeout=2.0)
        if child.is_alive():
            child.kill()
            leaked.append(f"local worker pid {child.pid}")
    return leaked


# --------------------------------------------------------------- reporting
def write_chrome_trace(path, bench: SpanLog, obs_records: list[dict]) -> None:
    """Bench spans plus the obs plane's spans as one Chrome trace file."""
    from repro.obs import Tracer

    trace = Tracer().chrome_trace(obs_records)
    trace["traceEvents"].append({
        "name": "process_name", "ph": "M", "pid": os.getpid(),
        "args": {"name": "perfbench"},
    })
    trace["traceEvents"].extend(bench.events)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))


def print_table(title: str, rows: list[tuple], header: tuple) -> None:
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    print(f"\n{title}")
    for row in [header, *rows]:
        print("  " + "  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"
