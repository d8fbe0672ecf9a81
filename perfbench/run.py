"""The repository benchmark: one command, three workloads, every layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http_prefill --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Workloads (why each exists is in ``perfbench/spec.py`` and BENCHMARK.json):

``http_prefill``
    HTTP clients POST one-shot prefill requests to ``/v1/attention`` of a
    ``SofaGateway`` over ``AsyncSofaClient`` over a 1-worker local
    ``EngineCluster``: a closed loop on ``nproc`` keep-alive connections
    (``throughput_rps``), then an open loop at a fixed rate, timed from
    each request's scheduled send (the latency metrics).
``decode_sessions``
    16 concurrent decode sessions sharing a system prompt, each step a T=1
    request with a ``cache_key``, over a 1-worker socket ``EngineCluster``
    whose paged cache budget forces spill writes and reloads.
``batch_longsel``
    Offline in-process prefill: a sync ``SofaEngine`` runs batches of 8
    heads at S=4096, kk=512.

``--trace 0`` measures the end-to-end metrics with telemetry off.
``--trace 1`` runs the workload twice, untraced then with the ``repro.obs``
plane on (``SOFA_TELEMETRY=1``, inherited by workers) and bench-side spans
around the public calls into each layer; it prints the per-layer metrics,
a per-layer table and a ledger that splits the mean request time across
the layers with the residual stated, and writes a Chrome trace to
``.perfbench_out/``.  In-worker stage, cache and codec times are read as
sum/count from the existing ``sofa_*`` histograms, never as bucket
quantiles; latency quantiles are nearest-rank over raw samples.

Every run checks a seeded sample of responses bit-for-bit against
per-head sequential ``SofaAttention`` (uncached); a mismatch counts as a
failed request.  Teardown is bounded and followed by a leak check; a hang
or a leftover worker process fails the run.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: A run that has not printed its result by then exits non-zero instead of
#: hanging past the 180 s a run may take.
WATCHDOG_S = 170.0


def _prepare_imports() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    # Socket workers are started as `python -m repro.cluster.worker`.
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    # The end-to-end runs are untraced whatever the caller's environment.
    os.environ.pop("SOFA_TELEMETRY", None)


def _print_phases(phases) -> None:
    import harness

    harness.print_table(
        "phases", [(p.name, p.sent, p.ok, p.failed, harness.fmt(p.seconds, 2))
                   for p in phases],
        ("phase", "sent", "ok", "failed", "seconds"))


def _print_ledger(ledger: dict) -> float:
    """Print the per-layer table; returns the unattributed residual (ms)."""
    import harness

    rows = ledger["rows"]
    residual = ledger["request_ms"] - sum(row[2] for row in rows)
    table = [(name, count, harness.fmt(self_ms), harness.fmt(wait_ms), failures)
             for name, count, self_ms, wait_ms, failures in rows]
    table.append(("residual: " + ledger["residual"], "", harness.fmt(residual), "", ""))
    table.append(("= mean request time", "", harness.fmt(ledger["request_ms"]), "", ""))
    harness.print_table(
        f"per-layer self time ({ledger['unit']}); [diff] rows are differences "
        "of nested spans", table,
        ("layer", "count", "self ms", "of which wait", "failures"))
    return residual


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)

    _prepare_imports()
    import harness
    import spec

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    names = [name for name, _ in spec.WORKLOADS]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS

    def give_up() -> None:
        print(f"perfbench: no result after {WATCHDOG_S:.0f} s", file=sys.stderr)
        harness.leaked_workers()
        os._exit(3)

    watchdog = threading.Timer(WATCHDOG_S, give_up)
    watchdog.daemon = True
    watchdog.start()

    import importlib

    workload = importlib.import_module(args.workload)
    host = harness.host_record(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds} "
          f"trace={args.trace}")
    print("host " + json.dumps(host))
    started = time.perf_counter()
    try:
        report = workload.run(args.seed, seconds, bool(args.trace), OUT_DIR)
    finally:
        leaks = harness.leaked_workers()
    errors = list(report["errors"]) + [f"leaked {x}" for x in leaks]

    phases = report["phases"]
    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)
    metrics = report["metrics"]
    if args.trace:
        metrics["host.matmul_gflops"] = harness.matmul_gflops()
        metrics["ledger.residual_ms"] = _print_ledger(report["ledger"])
        bench, obs_spans = report["trace"]
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        harness.write_chrome_trace(path, bench, obs_spans)
        print(f"chrome trace: {path.relative_to(ROOT)}")
        print("op counts come from the results' StageTrace/OpCounter and "
              "KiB figures from encoded sizes: computed, not measured")
        wanted = [name for name, *_ in spec.PER_LAYER]
    else:
        e2e = report["e2e"]
        lat = harness.latency_summary(e2e["latency"].latencies_s,
                                      spec.TAIL_QUANTILE[args.workload])
        metrics.update({
            "setup_s": statistics.median(e2e["setup_s"]),
            "throughput_rps": harness.windowed_rate(e2e["throughput"].done_s,
                                                    e2e["window"]),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "peak_rss_mb": harness.peak_rss_mb(),
        })
        wanted = [name for name, *_ in spec.END_TO_END]
        print(f"\nsetup: {len(e2e['setup_s'])} stacks built, median reported")
        print(f"throughput: phase {e2e['throughput'].name!r}, median over "
              f"windows of {e2e['window']} completions")
        print(f"latency: phase {e2e['latency'].name!r}, nearest rank over "
              f"{lat['n']} raw samples: p50 {lat['p50_ms']:.3f} ms, "
              f"p{100 * lat['tail_q']:g} {lat['tail_ms']:.3f} ms "
              f"({lat['beyond_tail']} samples beyond it)")
    _print_phases(phases)
    print(f"failed_ratio {failed / max(attempted, 1):.6f} ({failed} of {attempted} "
          "attempted: non-200, errors and sampled outputs that differ)")
    for line in report.get("notes", []):
        print(line)
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": spec.UNITS[name]}
           for name in wanted}
    harness.print_table("metrics", [(n, f"{v['value']:.6g}", v["unit"])
                                    for n, v in out.items()],
                        ("metric", "value", "unit"))
    correct = report["setup_ok"] and attempted > 0 and failed == 0 and not errors
    for error in errors:
        print(f"error: {error}")
    print(f"\nrun took {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": bool(correct), "attempted": int(max(attempted, 1)),
                      "failed": int(failed), "metrics": out}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
