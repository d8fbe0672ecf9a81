"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the names, units and
bounds live in one place.
"""

from __future__ import annotations

#: Seconds one run measures (split across its phases).
RUN_SECONDS = 30

#: http_prefill's open-loop arrival rate (requests/s).  Fixed, not derived
#: from the run, so later changes are compared at the same offered load.
#: It is about a third of the closed-loop throughput_rps (15-20 req/s over
#: ten seeds on a shared 2-CPU VM) when the benchmark was defined: at 60%
#: and at 50% queueing amplified the VM's run-to-run capacity drift, and
#: the tail spread over ten seeds reached 0.37.
OPEN_LOOP_RPS = 6.0

#: The tail quantile each workload reports as ``latency_tail_ms``, the
#: highest with about ten samples beyond it: http_prefill's open loop has
#: ~120 samples, decode_sessions thousands, batch_longsel one sample per
#: batch of 8 heads.
TAIL_QUANTILE = {
    "http_prefill": 0.90,
    "decode_sessions": 0.99,
    "batch_longsel": 0.90,
}

WORKLOADS = [
    ("http_prefill",
     "only path through gateway JSON, admission and the async bridge, with "
     "heavy kernels (S=2048): front-door and kernel gains both show; closed "
     "loop, then open loop at 6 req/s"),
    ("decode_sessions",
     "16 decode sessions, T=1 steps on a shared 384-token prompt over a socket "
     "worker: cluster, codec, transport and paged cache (hits, spills, reloads) "
     "dominate; kernels small"),
    ("batch_longsel",
     "offline in-process prefill, 8 heads at S=4096, kk=512: all time is "
     "predict, select, kv_gather and stream, no serving layer, so kernel and "
     "gather changes show cleanly"),
]

#: (name, unit, better, bound).  ``ok_ratio`` is 1 - failed_ratio: a
#: failure ratio reads 0 on a healthy run, so a share of it bounds nothing.
#: ``latency_tail_ms`` is each workload's tail percentile (TAIL_QUANTILE).
#: The bounds are wide because on a shared 2-CPU VM runs of the same code
#: drift by 10-25%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.25),
]

#: (name, unit, better).  Layers a workload does not pass through read 0.
PER_LAYER = [
    ("gateway.parse_ms", "ms", "lower"),
    ("gateway.respond_ms", "ms", "lower"),
    ("gateway.body_kb", "KiB", "lower"),
    ("gateway.wait_ms", "ms", "lower"),
    ("gateway.rejected", "count", "lower"),
    ("cluster.submit_ms", "ms", "lower"),
    ("cluster.overhead_ms", "ms", "lower"),
    ("cluster.batch_heads", "count", "higher"),
    ("cluster.deduped", "count", "lower"),
    ("cluster.errors", "count", "lower"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.decode_ms", "ms", "lower"),
    ("codec.frame_kb", "KiB", "lower"),
    ("engine.queue_wait_ms", "ms", "lower"),
    ("engine.execute_ms", "ms", "lower"),
    ("engine.batch_heads", "count", "higher"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.rows_reused_ratio", "ratio", "higher"),
    ("cache.lookup_ms", "ms", "lower"),
    ("cache.spill_writes", "count", "lower"),
    ("cache.spill_loads", "count", "lower"),
    ("cache.resident_mb", "MiB", "lower"),
    ("cache.shared_blocks", "count", "higher"),
    ("kernels.predict_ms", "ms", "lower"),
    ("kernels.select_ms", "ms", "lower"),
    ("kernels.predict_select_ms", "ms", "lower"),
    ("kernels.kv_gather_ms", "ms", "lower"),
    ("kernels.stream_ms", "ms", "lower"),
    ("kernels.other_ms", "ms", "lower"),
    ("kernels.predict_gops", "Gop/s", "higher"),
    ("kernels.stream_gops", "Gop/s", "higher"),
    ("kernels.selected_per_row", "count", "higher"),
    ("kernels.assurance_triggers", "count", "lower"),
    ("host.matmul_gflops", "GFLOP/s", "higher"),
    ("obs.trace_overhead_ratio", "ratio", "higher"),
    ("generator.lag_p99_ms", "ms", "lower"),
    ("ledger.residual_ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
