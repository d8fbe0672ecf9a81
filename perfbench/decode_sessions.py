"""decode_sessions: concurrent decode sessions over a socket worker.

16 session coroutines share one ``AsyncSofaClient`` over
``EngineCluster(n_workers=1, transport="socket")``.  Every session starts
from the same 384-token system prompt (H=128, Dk=64, tile_cols=64,
top_k=0.1, the ``bench_cache.py`` shape) and decodes 12 steps: each step
appends one token and sends a T=1 request with ``cache_key=<session>``,
then waits for the reply (a closed loop).  A finished session is replaced
by a fresh one, whose first step is a cold miss that shares the prompt's
cached blocks.  Finished sessions are not invalidated; the worker's entry
bound evicts them, so block frees run beside hits.  The cache byte budget
is below the steady resident set, so spill writes and reloads run in
steady state.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time

import numpy as np

import harness
from harness import Phase, SpanLog

PROMPT, H, D = 384, 128, 64
TILE_COLS = 64
TOP_K = 0.1
SESSIONS = 16
STEPS = 12
BLOCK_TOKENS = 32
#: entry bound: the 16 live sessions plus as many finished ones.
CACHE_ENTRIES = 2 * SESSIONS
#: RAM budget of the worker's paged cache, below the steady resident set
#: (shared prompt blocks plus every live and finished session's tail).
CACHE_BYTES = 1_250_000
#: sessions generated up front; a run that outlasts them cycles their
#: inputs under fresh cache keys (and says so).
SESSION_POOL = 1024
N_SETUPS = 3
#: seconds of session traffic before measuring (see _sessions)
WARMUP_S = 2.5
#: completions per throughput window (see harness.windowed_rate)
THROUGHPUT_WINDOW = 200
#: (session, step) pairs checked against the uncached reference, drawn
#: from the first sessions, which every run completes.
N_CHECKED = 4


def _config():
    from repro.core.config import SofaConfig

    return SofaConfig(tile_cols=TILE_COLS, top_k=TOP_K)


class Inputs:
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 5])
        self.wk = rng.normal(size=(H, D))
        self.wv = rng.normal(size=(H, D))
        self.prompt = rng.integers(-100, 100, size=(PROMPT, H)).astype(np.float64)
        # The prompt holds the sequence maximum, so every session quantizes
        # with the prompt's scale and shares its cached blocks.
        self.prompt[1, 2] = 125.0
        self.rows = rng.integers(-60, 60, size=(SESSION_POOL, STEPS, H)).astype(np.int8)
        self.q = rng.normal(size=(SESSION_POOL, STEPS, 1, D))
        pick = np.random.default_rng([seed, 6])
        self.keep = {
            (int(s), int(t)) for s, t in zip(
                pick.choice(2 * SESSIONS, size=N_CHECKED, replace=False),
                pick.integers(0, STEPS, size=N_CHECKED))
        }

    def tokens(self, session: int, step: int) -> np.ndarray:
        rows = self.rows[session % SESSION_POOL, : step + 1].astype(np.float64)
        return np.concatenate([self.prompt, rows])

    def request(self, session: int, step: int, key: str | None):
        from repro.engine import AttentionRequest

        return AttentionRequest(
            tokens=self.tokens(session, step),
            q=self.q[session % SESSION_POOL, step], wk=self.wk, wv=self.wv,
            cache_key=key)


def _reference(inputs: Inputs, session: int, step: int):
    from repro.core.pipeline import SofaAttention

    request = inputs.request(session, step, None)
    return SofaAttention(request.wk, request.wv, _config())(request.tokens, request.q)


class Stack:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.cluster = self.client = None

    def start(self, inputs: Inputs) -> tuple[float, object]:
        """Spawn and connect the worker, serve one step; (seconds, result)."""
        from repro.cluster import AsyncSofaClient, EngineCluster

        t0 = time.perf_counter()
        self.cluster = EngineCluster(
            n_workers=1, config=_config(), transport="socket",
            cache_entries=CACHE_ENTRIES, cache_bytes=CACHE_BYTES,
            cache_block_tokens=BLOCK_TOKENS, cache_spill_dir=self.spill_dir)
        self.client = AsyncSofaClient(self.cluster)
        result = self.cluster.run([inputs.request(0, 0, "setup")])[0]
        return time.perf_counter() - t0, result

    async def stop(self, errors: list[str]) -> None:
        await harness.teardown(errors, cluster=self.cluster)
        shutil.rmtree(self.spill_dir, ignore_errors=True)


async def _sessions(stack: Stack, inputs: Inputs, seconds: float, first: int,
                    name: str, kept: dict, bench: SpanLog | None = None,
                    at_start=None) -> tuple[Phase, int, int]:
    """16 closed-loop sessions; (phase, next session, rows requested).

    Steps sent in the first ``WARMUP_S`` count as sent (and failed) but
    not towards throughput and latency: the sessions start in lockstep and
    the cache fills, then ``seconds`` of steady state are measured.
    ``at_start`` is called when the measured window opens.
    """
    phase = Phase(name)
    serial = iter(range(first, 1 << 30))
    rows = 0
    t_start = time.perf_counter() + WARMUP_S
    deadline = t_start + seconds
    last_end = t_start

    async def session_loop() -> None:
        nonlocal rows, last_end
        while time.perf_counter() < deadline:
            s = next(serial)
            key = f"session-{s}"
            for step in range(STEPS):
                if time.perf_counter() >= deadline:
                    return
                t0 = time.perf_counter()
                request = inputs.request(s, step, key)
                t_built = time.perf_counter()
                try:
                    result = await stack.client.submit(request)
                except Exception:  # noqa: BLE001 - a failed step
                    phase.sent += 1
                    phase.failed += 1
                    continue
                t1 = time.perf_counter()
                if bench is not None and t0 >= t_start:
                    bench.add("session.build", t0, t_built)
                    bench.add("cluster.submit", t_built, t1)
                    bench.add("session.step", t0, t1)
                phase.sent += 1
                if (s - first, step) in inputs.keep:
                    kept[(s, step)] = result
                if t0 < t_start:
                    continue
                rows += request.tokens.shape[0]
                last_end = max(last_end, t1)
                phase.latencies_s.append(t1 - t0)
                phase.done_s.append(t1 - t_start)

    async def mark() -> None:
        await asyncio.sleep(t_start - time.perf_counter())
        if at_start is not None:
            at_start()

    await asyncio.gather(mark(), *(session_loop() for _ in range(SESSIONS)))
    phase.seconds = last_end - t_start
    return phase, next(serial), rows


def _check(inputs: Inputs, kept: dict, phase: Phase, errors: list[str]) -> list:
    """Count sampled steps that differ from the same step uncached as
    failed; returns the reference results.  A sampled step that never
    completed is an error."""
    refs = []
    for (s, step), result in sorted(kept.items()):
        refs.append(_reference(inputs, s, step))
        phase.failed += not harness.same_result(result, refs[-1])
    if len(kept) < N_CHECKED:
        errors.append(f"only {len(kept)} of {N_CHECKED} sampled steps completed")
    return refs


def _frame_encode(inputs: Inputs) -> tuple[float, int]:
    """(median ms, bytes) of ``encode_frame`` for a typical step request."""
    from repro.engine.codec import encode_frame, encode_request

    message = ("req", 0, encode_request(inputs.request(0, STEPS // 2, "s")))
    times = []
    for _ in range(25):
        t0 = time.perf_counter()
        frame = encode_frame(message)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times)), len(frame)


async def _run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    from repro import obs

    inputs = Inputs(seed)
    spill_dir = str(out_dir / f"spill-{os.getpid()}")
    report: dict = {"phases": [], "metrics": {}, "errors": [], "notes": []}
    setup_times = []
    setup_ok = True
    setup_ref = _reference(inputs, 0, 0)
    stack = None
    try:
        for _ in range(1 if trace else N_SETUPS):
            if stack is not None:
                await stack.stop(report["errors"])
            stack = Stack(spill_dir)
            elapsed, result = stack.start(inputs)
            setup_times.append(elapsed)
            setup_ok &= harness.same_result(result, setup_ref)

        kept: dict = {}
        phase, nxt, _ = await _sessions(
            stack, inputs, seconds / 2 if trace else seconds, 0, "closed", kept)
        refs = _check(inputs, kept, phase, report["errors"])
        report["phases"].append(phase)
        if stack.cluster.stats.n_deduped:
            report["errors"].append("cluster dedup fired: inputs in flight repeated")
        if not trace:
            report["e2e"] = {"setup_s": setup_times, "throughput": phase,
                             "window": THROUGHPUT_WINDOW, "latency": phase}
            if nxt > SESSION_POOL:
                report["notes"].append(
                    f"sessions cycled the {SESSION_POOL} generated inputs")
            return report

        # ------------------------------------------------- traced sessions
        await stack.stop(report["errors"])
        stack = None
        telemetry = obs.enable()
        os.environ[obs.ENV_VAR] = "1"
        try:
            stack = Stack(spill_dir)
            stack.start(inputs)
        finally:
            del os.environ[obs.ENV_VAR]
        bench = SpanLog()
        start: dict = {}

        def snapshot_start() -> None:
            start["stats"] = stack.cluster.stats
            start["front"] = telemetry.registry.snapshot()
            telemetry.tracer.clear()

        traced, _, rows = await _sessions(
            stack, inputs, seconds / 2, nxt, "closed-traced", {}, bench,
            snapshot_start)
        before, front_before = start["stats"], start["front"]
        after = stack.cluster.stats
        front_after = telemetry.registry.snapshot()
        spans = telemetry.tracer.spans()
        report["phases"].append(traced)

        w0, w1 = before.workers[0], after.workers[0]
        split = harness.engine_split(w1.telemetry, w0.telemetry)
        submit_ms = bench.mean_ms("cluster.submit")
        cluster_metrics, cluster_rows = harness.cluster_layers(
            submit_ms, bench.count("cluster.submit"), split, spans,
            front_after, front_before, after, before)
        frame_ms, frame_bytes = _frame_encode(inputs)
        c0, c1 = w0.cache, w1.cache
        lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses)
        m = report["metrics"]
        m.update(cluster_metrics)
        m.update(harness.kernel_metrics(split, refs, H))
        m.update({
            # encode_frame is timed here on a typical step: the socket
            # link frames each message outside any histogram.
            "codec.encode_ms": cluster_metrics["codec.encode_ms"] + frame_ms,
            "codec.frame_kb": frame_bytes / 1024,
            "cache.hit_rate": (c1.hits - c0.hits) / lookups if lookups else 0.0,
            "cache.rows_reused_ratio": (c1.rows_reused - c0.rows_reused) / rows,
            "cache.lookup_ms": harness.hist_mean_ms(
                w1.telemetry, w0.telemetry, "sofa_cache_lookup_seconds"),
            "cache.spill_writes": float(harness.hist_delta(
                w1.telemetry, w0.telemetry, "sofa_cache_spill_write_seconds")[1]),
            "cache.spill_loads": float(c1.spill_loads - c0.spill_loads),
            "cache.resident_mb": c1.resident_bytes / 2 ** 20,
            "cache.shared_blocks": float(c1.shared_blocks),
            "obs.trace_overhead_ratio": (
                harness.windowed_rate(phase.done_s, THROUGHPUT_WINDOW)
                / harness.windowed_rate(traced.done_s, THROUGHPUT_WINDOW)),
        })
        report["ledger"] = {
            "unit": "ms per decode step, traced closed loop",
            "request_ms": bench.mean_ms("session.step"),
            "rows": [
                ("client (assemble the step's input)",
                 bench.count("session.build"), bench.mean_ms("session.build"), 0.0, 0),
                *cluster_rows,
            ],
            "residual": "session coroutine scheduling between the spans",
        }
        report["notes"].append(
            "cache lookups, spill writes and reloads run inside kernels.predict "
            f"(lookup {m['cache.lookup_ms']:.3f} ms each)")
        report["trace"] = (bench, spans)
        return report
    finally:
        if stack is not None:
            await stack.stop(report["errors"])
        obs.disable()
        report["setup_ok"] = setup_ok


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    return asyncio.run(_run(seed, seconds, trace, out_dir))
