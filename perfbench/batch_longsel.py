"""batch_longsel: offline prefill of whole layers, in-process.

A sync :class:`~repro.engine.serving.SofaEngine` with no cache ``run()``s
batches of 8 heads with distinct weights at S=4096, T=64, kk=512 - the
long-selection stream.  There is no gateway, codec, transport or cache on
the path, so every millisecond is predict, select, kv_gather, stream or
per-head bookkeeping.  The loop is closed: one batch at a time.
"""

from __future__ import annotations

import time

import numpy as np

import harness
from harness import Phase, SpanLog

S, T, H, D = 4096, 64, 64, 64
HEADS = 8
TILE_COLS = 64
TOP_K = 0.125
#: distinct weight stacks cycled through; below the engine's operator LRU
#: (16), so after warm-up the loop measures the pipeline, not preparation.
LAYERS = 4
#: query stacks generated up front; the loop cycles them (a SofaEngine
#: without cache keys has no result reuse, so a repeat costs the same).
Q_POOL = 24
N_SETUPS = 3
#: batches (the first measured ones) and seeded heads per batch checked
N_CHECKED_BATCHES = 2
CHECKED_PER_BATCH = 1


def _config():
    from repro.core.config import SofaConfig

    return SofaConfig(tile_cols=TILE_COLS, top_k=TOP_K)


class Inputs:
    """Seeded weights, layer inputs and query stacks."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.wk = rng.normal(size=(LAYERS, HEADS, H, D))
        self.wv = rng.normal(size=(LAYERS, HEADS, H, D))
        self.tokens = rng.integers(-100, 100, size=(LAYERS, S, H)).astype(np.float64)
        self.q = rng.normal(size=(Q_POOL, HEADS, T, D))
        self.sample_rng = np.random.default_rng([seed, 4])

    def batch(self, i: int):
        from repro.engine import AttentionRequest

        layer = i % LAYERS
        q = self.q[i % Q_POOL]
        return [
            AttentionRequest(tokens=self.tokens[layer], q=q[h],
                             wk=self.wk[layer, h], wv=self.wv[layer, h])
            for h in range(HEADS)
        ]


def _reference(request):
    from repro.core.pipeline import SofaAttention

    return SofaAttention(request.wk, request.wv, _config())(request.tokens, request.q)


def _closed_loop(engine, inputs: Inputs, seconds: float, first: int,
                 phase: Phase, keep: set[int], kept: dict) -> int:
    """Run whole batches until ``seconds`` pass; returns batches run."""
    i = first
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        requests = inputs.batch(i)
        t0 = time.perf_counter()
        try:
            results = engine.run(requests)
        except Exception:  # noqa: BLE001 - counted as failed requests
            phase.failed += HEADS
            results = None
        latency = time.perf_counter() - t0
        phase.sent += HEADS
        if results is not None:
            phase.latencies_s.extend([latency] * HEADS)
            phase.done_s.extend([time.perf_counter() - t_start] * HEADS)
            if i in keep:
                kept[i] = results
        i += 1
    phase.seconds = time.perf_counter() - t_start
    return i - first


def _check(inputs: Inputs, kept: dict, phase: Phase, errors: list[str]) -> None:
    """Count sampled heads that differ bit-for-bit from the sequential
    reference as failed; a sampled batch that never completed is an error."""
    for i, results in sorted(kept.items()):
        requests = inputs.batch(i)
        for h in inputs.sample_rng.choice(HEADS, size=CHECKED_PER_BATCH, replace=False):
            phase.failed += not harness.same_result(results[h], _reference(requests[h]))
    if len(kept) < N_CHECKED_BATCHES:
        errors.append(f"only {len(kept)} of {N_CHECKED_BATCHES} sampled batches completed")


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    from repro import obs
    from repro.engine import SofaEngine

    inputs = Inputs(seed)
    report: dict = {"phases": [], "metrics": {}, "errors": []}

    # ------------------------------------------------------------- set-up
    setup_times = []
    setup_ok = True
    first = inputs.batch(0)
    first_ref = _reference(first[0])
    engine = None
    for _ in range(1 if trace else N_SETUPS):
        if engine is not None:
            engine.shutdown()
        t0 = time.perf_counter()
        engine = SofaEngine(_config(), max_batch_heads=HEADS)
        results = engine.run(first)
        setup_times.append(time.perf_counter() - t0)
        setup_ok &= harness.same_result(results[0], first_ref)

    # ------------------------------------------------------------ measure
    # The first measured batches; the checked heads in them are seeded.
    keep = set(range(1, 1 + N_CHECKED_BATCHES))
    if not trace:
        phase = Phase("closed")
        kept: dict = {}
        _closed_loop(engine, inputs, seconds, 1, phase, keep, kept)
        _check(inputs, kept, phase, report["errors"])
        report["phases"].append(phase)
        report["e2e"] = {"setup_s": setup_times, "throughput": phase,
                         "window": HEADS, "latency": phase}
    else:
        half = seconds / 2
        plain = Phase("closed-untraced")
        kept = {}
        n = _closed_loop(engine, inputs, half, 1, plain, keep, kept)
        telemetry = obs.enable()
        before = telemetry.registry.snapshot()
        traced = Phase("closed-traced")
        bench = SpanLog()
        run_fn = engine.run
        engine.run = bench.wrap("engine.run", run_fn)
        try:
            _closed_loop(engine, inputs, half, 1 + n, traced, set(), {})
        finally:
            engine.run = run_fn
        after = telemetry.registry.snapshot()
        obs.disable()
        _check(inputs, kept, plain, report["errors"])
        report["phases"] += [plain, traced]
        split = harness.engine_split(after, before)
        # Op counts and deterministic counts from the sampled batches.
        served = [kept[i][0] for i in sorted(kept)]
        m = report["metrics"]
        m.update(harness.kernel_metrics(split, served, H))
        m["obs.trace_overhead_ratio"] = (
            harness.windowed_rate(plain.done_s, HEADS)
            / harness.windowed_rate(traced.done_s, HEADS))
        report["ledger"] = {
            "unit": "ms per batch of 8 heads, traced closed loop",
            "request_ms": bench.mean_ms("engine.run"),
            "rows": [
                ("engine (submit, stack, drain) [diff]", bench.count("engine.run"),
                 bench.mean_ms("engine.run") - split["execute"],
                 split["queue_wait"], 0),
                *harness.kernel_rows(split),
            ],
            "residual": "none expected: every row is inside engine.run",
        }
        report["trace"] = (bench, obs.get_telemetry().tracer.spans())
    report["setup_ok"] = setup_ok
    engine.shutdown()
    return report
