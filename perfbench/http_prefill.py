"""http_prefill: one-shot prefill requests over HTTP.

Path: HTTP client -> ``SofaGateway`` (default ``GatewayConfig``) ->
``AsyncSofaClient`` -> ``EngineCluster(n_workers=1, transport="local")``.
The shape is the gateway-bench request (S=2048, T=48, H=8, Dk=Dv=64,
tile_cols=32, top_k=0.25); every body in flight is distinct, so the
cluster's dedup never fires.

Phase 1 is a closed loop over ``nproc`` keep-alive connections
(``throughput_rps``).  Phase 2 is an open loop at the fixed
``spec.OPEN_LOOP_RPS`` over the same number of connections; each
request's latency runs from its scheduled send, so a stall also charges
the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

import harness
import spec
from harness import Phase, SpanLog

S, T, H, D = 2048, 48, 8, 64
TILE_COLS = 32
TOP_K = 0.25
#: distinct bodies for the closed-loop phases; they are cycled if a run
#: outlasts them (at most nproc are in flight, so no two in flight match).
CLOSED_POOL = 192
N_SETUPS = 3
N_CHECKED = 3
#: completions per throughput window (see harness.windowed_rate)
THROUGHPUT_WINDOW = 20


def _config():
    from repro.core.config import SofaConfig

    return SofaConfig(tile_cols=TILE_COLS, top_k=TOP_K)


def _arrays(seed: int, pool: int, i: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, pool, i])
    return {
        "tokens": rng.integers(-100, 100, size=(S, H)).astype(np.float64),
        "q": rng.normal(size=(T, D)),
        "wk": rng.normal(size=(H, D)),
        "wv": rng.normal(size=(H, D)),
    }


def _bodies(seed: int, pool: int, n: int) -> list[bytes]:
    out = []
    for i in range(n):
        body = {k: v.tolist() for k, v in _arrays(seed, pool, i).items()}
        body["tag"] = f"perfbench-{pool}-{i}"
        out.append(json.dumps(body).encode())
    return out


def _check(seed: int, pool: int, kept: dict[int, bytes]) -> tuple[int, list]:
    """Bit-for-bit compare kept responses with sequential SofaAttention.

    Returns the number of mismatches and the reference results.
    """
    from repro.core.pipeline import SofaAttention

    bad = 0
    refs = []
    for i, raw in sorted(kept.items()):
        a = _arrays(seed, pool, i)
        ref = SofaAttention(a["wk"], a["wv"], _config())(a["tokens"], a["q"])
        refs.append(ref)
        got = json.loads(raw)
        output = np.asarray(got["output"], dtype=np.float64)
        same = (output.tobytes() == ref.output.tobytes()
                and np.array_equal(np.asarray(got["selected"]), ref.selected)
                and got["assurance_triggers"] == ref.assurance_triggers)
        bad += not same
    return bad, refs


class Stack:
    """Gateway over an async client over a 1-worker local cluster."""

    def __init__(self):
        self.cluster = self.client = self.gateway = None
        self.conns: list = []

    async def start(self, n_conns: int, first_body: bytes) -> tuple[float, bytes]:
        """Build the stack and serve one request; (seconds, response)."""
        from repro.cluster import AsyncSofaClient, EngineCluster
        from repro.gateway import GatewayClient, SofaGateway

        t0 = time.perf_counter()
        self.cluster = EngineCluster(n_workers=1, config=_config(),
                                     transport="local")
        self.client = AsyncSofaClient(self.cluster)
        self.gateway = SofaGateway(self.client)
        await self.gateway.start()
        self.conns = [GatewayClient("127.0.0.1", self.gateway.port)
                      for _ in range(n_conns)]
        status, _, raw = await self.conns[0].request(
            "POST", "/v1/attention", first_body)
        elapsed = time.perf_counter() - t0
        if status != 200:
            raise RuntimeError(f"set-up request answered {status}")
        return elapsed, raw

    async def stop(self, errors: list[str]) -> None:
        await harness.teardown(errors, http=self.conns, gateway=self.gateway,
                               cluster=self.cluster)


async def _closed_loop(stack: Stack, bodies: list[bytes], seconds: float,
                       start_index: int, keep: set[int], kept: dict,
                       name: str, bench: SpanLog | None = None) -> tuple[Phase, int, int]:
    """Each connection sends its next body when the previous reply lands."""
    phase = Phase(name)
    counter = iter(range(start_index, 1 << 30))
    rejected = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    last_end = t_start

    async def client(conn) -> None:
        nonlocal rejected, last_end
        while time.perf_counter() < deadline:
            i = next(counter)
            t0 = time.perf_counter()
            try:
                status, _, raw = await conn.request(
                    "POST", "/v1/attention", bodies[i % len(bodies)])
            except (OSError, asyncio.IncompleteReadError):
                status, raw = 0, b""
            t1 = time.perf_counter()
            if bench is not None:
                bench.add("http.request", t0, t1)
            phase.sent += 1
            last_end = max(last_end, t1)
            if status != 200:
                phase.failed += 1
                rejected += status in (429, 503)
                continue
            phase.latencies_s.append(t1 - t0)
            phase.done_s.append(t1 - t_start)
            if i in keep:
                kept[i] = raw

    await asyncio.gather(*(client(conn) for conn in stack.conns))
    phase.seconds = last_end - t_start
    return phase, next(counter), rejected


async def _open_loop(stack: Stack, bodies: list[bytes], rate: float,
                     keep: set[int], kept: dict) -> tuple[Phase, list[float], int]:
    """Send body i at start + i/rate over a pool of the stack's connections."""
    phase = Phase("open")
    lags: list[float] = []
    rejected = 0
    pool: asyncio.Queue = asyncio.Queue()
    for conn in stack.conns:
        pool.put_nowait(conn)

    async def send(i: int, due: float) -> None:
        nonlocal rejected
        conn = await pool.get()
        try:
            status, _, raw = await conn.request("POST", "/v1/attention", bodies[i])
        except (OSError, asyncio.IncompleteReadError):
            status, raw = 0, b""
        finally:
            pool.put_nowait(conn)
        phase.sent += 1
        if status != 200:
            phase.failed += 1
            rejected += status in (429, 503)
            return
        phase.latencies_s.append(time.perf_counter() - due)
        if i in keep:
            kept[i] = raw

    tasks = []
    t_start = time.perf_counter()
    for i in range(len(bodies)):
        due = t_start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(send(i, due)))
    await asyncio.gather(*tasks)
    phase.seconds = time.perf_counter() - t_start
    return phase, lags, rejected


class _TimedJson:
    """Stand-in for the gateway module's ``json``: spans around loads/dumps."""

    def __init__(self, bench: SpanLog):
        self.loads = bench.wrap("gateway.json_loads", json.loads)
        self.dumps = bench.wrap("gateway.json_dumps", json.dumps)


def _install_spans(stack: Stack, bench: SpanLog, waits: list[float]):
    """Bench-side spans around the gateway's JSON codec and the submit call.

    The gateway looks these names up in its module at call time, so
    rebinding them there times every call; ``restore`` undoes it.
    """
    from repro.gateway import server

    saved = (server.json, server.request_from_json, server.result_to_json)
    parsed_at: dict[int, float] = {}

    def request_from_json(body):
        t0 = time.perf_counter()
        request = saved[1](body)
        t1 = time.perf_counter()
        bench.add("gateway.request_from_json", t0, t1)
        parsed_at[id(request)] = t1
        return request

    submit = stack.client.submit

    async def timed_submit(request):
        t0 = time.perf_counter()
        parsed = parsed_at.pop(id(request), None)
        if parsed is not None:
            waits.append(t0 - parsed)
            bench.add("gateway.wait", parsed, t0)
        try:
            return await submit(request)
        finally:
            bench.add("cluster.submit", t0, time.perf_counter())

    server.json = _TimedJson(bench)
    server.request_from_json = request_from_json
    server.result_to_json = bench.wrap("gateway.result_to_json", saved[2])
    stack.client.submit = timed_submit

    def restore() -> None:
        server.json, server.request_from_json, server.result_to_json = saved
        stack.client.submit = submit

    return restore


async def _run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import obs

    n_conns = harness.nproc()
    report: dict = {"phases": [], "metrics": {}, "errors": [], "notes": []}
    # Untraced: closed loop for a third of the window, open loop for the
    # rest (enough samples for p95).  Traced: a short untraced closed and
    # open loop (overhead base, generator lag), then the traced closed loop.
    closed_s, open_s = (seconds / 4, seconds / 4) if trace else (seconds / 3, 2 * seconds / 3)
    closed = _bodies(seed, 1, CLOSED_POOL)
    opened = _bodies(seed, 2, int(spec.OPEN_LOOP_RPS * open_s))
    pick = np.random.default_rng([seed, 9])
    # Body 0 serves the set-up request; the closed loop starts at body 1.
    keep_closed = set(pick.choice(np.arange(1, 13), size=N_CHECKED, replace=False).tolist())
    keep_open = set(pick.choice(len(opened), size=N_CHECKED, replace=False).tolist())
    kept_closed: dict[int, bytes] = {}
    kept_open: dict[int, bytes] = {}

    setup_times = []
    setup_ok = True
    stack = None
    try:
        for _ in range(1 if trace else N_SETUPS):
            if stack is not None:
                await stack.stop(report["errors"])
            stack = Stack()
            elapsed, raw = await stack.start(n_conns, closed[0])
            setup_times.append(elapsed)
            setup_ok &= _check(seed, 1, {0: raw})[0] == 0

        phase, nxt, rej_c = await _closed_loop(
            stack, closed, closed_s, 1, keep_closed, kept_closed, "closed")
        bad, refs = _check(seed, 1, kept_closed)
        phase.failed += bad
        open_phase, lags, rej_o = await _open_loop(
            stack, opened, spec.OPEN_LOOP_RPS, keep_open, kept_open)
        open_phase.failed += _check(seed, 2, kept_open)[0]
        if len(kept_closed) + len(kept_open) < 2 * N_CHECKED:
            report["errors"].append("a sampled request did not complete")
        report["phases"] += [phase, open_phase]
        if stack.cluster.stats.n_deduped:
            report["errors"].append("cluster dedup fired: inputs in flight repeated")
        if not trace:
            report["e2e"] = {"setup_s": setup_times, "throughput": phase,
                             "window": THROUGHPUT_WINDOW, "latency": open_phase}
            return report

        # ------------------------------------------------- traced closed loop
        await stack.stop(report["errors"])
        stack = None
        telemetry = obs.enable()
        os.environ[obs.ENV_VAR] = "1"
        try:
            stack = Stack()
            await stack.start(n_conns, closed[0])
        finally:
            del os.environ[obs.ENV_VAR]
        bench = SpanLog()
        waits: list[float] = []
        restore = _install_spans(stack, bench, waits)
        stats_before = stack.cluster.stats
        front_before = telemetry.registry.snapshot()
        telemetry.tracer.clear()
        try:
            traced, end, rej_t = await _closed_loop(
                stack, closed, seconds / 2, nxt, set(), {}, "closed-traced",
                bench)
        finally:
            restore()
        stats_after = stack.cluster.stats
        front_after = telemetry.registry.snapshot()
        spans = telemetry.tracer.spans()
        report["phases"].append(traced)
        if end > CLOSED_POOL:
            report["notes"].append(
                f"closed loops cycled the {CLOSED_POOL} distinct bodies")

        split = harness.engine_split(stats_after.workers[0].telemetry,
                                     stats_before.workers[0].telemetry)
        submit_ms = bench.mean_ms("cluster.submit")
        cluster_metrics, cluster_rows = harness.cluster_layers(
            submit_ms, bench.count("cluster.submit"), split, spans,
            front_after, front_before, stats_after, stats_before)
        parse_ms = (bench.mean_ms("gateway.json_loads")
                    + bench.mean_ms("gateway.request_from_json"))
        respond_ms = (bench.mean_ms("gateway.result_to_json")
                      + bench.mean_ms("gateway.json_dumps"))
        wait_ms = 1e3 * float(np.mean(waits)) if waits else 0.0
        rejected = rej_c + rej_o + rej_t
        from repro.engine.codec import encode_frame, encode_request
        from repro.gateway import request_from_json

        frame = encode_frame(("req", 0, encode_request(
            request_from_json(json.loads(closed[0])))))
        m = report["metrics"]
        m.update(cluster_metrics)
        m.update(harness.kernel_metrics(split, refs, H))
        m.update({
            "gateway.parse_ms": parse_ms,
            "gateway.respond_ms": respond_ms,
            "gateway.body_kb": float(np.mean([len(b) for b in closed])) / 1024,
            "gateway.wait_ms": wait_ms,
            "gateway.rejected": float(rejected),
            "codec.frame_kb": len(frame) / 1024,
            "obs.trace_overhead_ratio": (
                harness.windowed_rate(phase.done_s, THROUGHPUT_WINDOW)
                / harness.windowed_rate(traced.done_s, THROUGHPUT_WINDOW)),
            "generator.lag_p99_ms": 1e3 * harness.nearest_rank(lags, 0.99),
        })
        report["ledger"] = {
            "unit": "ms per request, traced closed loop",
            "request_ms": bench.mean_ms("http.request"),
            "rows": [
                ("gateway.parse (json.loads + request_from_json)",
                 bench.count("gateway.request_from_json"), parse_ms, 0.0, 0),
                ("gateway.wait (admission to dispatch)", len(waits),
                 wait_ms, wait_ms, rejected),
                *cluster_rows,
                ("gateway.respond (result_to_json + json.dumps)",
                 bench.count("gateway.result_to_json"), respond_ms, 0.0, 0),
            ],
            "residual": "HTTP framing and socket I/O on both ends, client "
                        "and event-loop scheduling",
        }
        report["trace"] = (bench, spans)
        return report
    finally:
        if stack is not None:
            await stack.stop(report["errors"])
        obs.disable()
        report["setup_ok"] = setup_ok


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    return asyncio.run(_run(seed, seconds, trace))
