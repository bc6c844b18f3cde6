"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mean-200k --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs with
span tracing and prints the per-layer table. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). The full record — host stamp,
sample counts, tail percentiles, mirrored cells — is printed on the line
before it and written to ``.perfbench-out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _latency_cells(source: str) -> dict:
    """HTTP cells of a workload without HTTP: its own latency, in kind."""
    return {
        "read_p50_ms": (source, 1e3),
        "read_tail_ms": (source, 1e3),
        "read_qps_max": (source, "inverse"),
        "write_p50_ms": (source, 1e3),
        "visible_p50_ms": (source, 1e3),
        "visible_tail_ms": (source, 1e3),
    }


#: Cells a workload does not measure itself: metric -> (own metric, factor).
#: Every workload must print every metric, so such a cell repeats the
#: workload's own figure of the same kind; factor "inverse" turns a
#: latency into a rate. The record lists them under "mirrors".
MIRRORS = {
    "mean-200k": {
        "epoch_s": ("converge_s", 1.0),
        "epoch_steps": ("converge_steps", 1.0),
        **_latency_cells("converge_s"),
    },
    "churn-50k": {
        "converge_s": ("epoch_s", 1.0),
        "converge_steps": ("epoch_steps", 1.0),
        **_latency_cells("epoch_s"),
    },
    "service-http": {
        "converge_s": ("visible_p50_ms", 1e-3),
        "epoch_s": ("visible_p50_ms", 1e-3),
        "converge_steps": ("fixed_reads", 1.0),
        "epoch_steps": ("fixed_reads", 1.0),
        "msgs_per_node": ("fixed_requests_per_peer", 1.0),
    },
}

WORKLOADS = tuple(MIRRORS)
OUT_DIR = ROOT / ".perfbench-out"


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def end_to_end(workload: str, own: dict, failed: int, attempted: int) -> tuple:
    """All end-to-end metrics, mirrored cells filled in; and the mirror map."""
    from common import failed_ratio

    metrics = {name: own[name] for name in END_TO_END if name in own}
    metrics["failed_ratio"] = failed_ratio(failed, attempted)
    mirrors = {}
    for name, (source, factor) in MIRRORS[workload].items():
        value = own[source]
        metrics[name] = 1.0 / value if factor == "inverse" else value * factor
        mirrors[name] = source
    missing = set(END_TO_END) - set(metrics)
    if missing:
        raise AssertionError(f"{workload} left {sorted(missing)} unmeasured")
    return {name: metrics[name] for name in END_TO_END}, mirrors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="toy sizes for the benchmark's own tests"
    )
    args = parser.parse_args(argv)

    _import_program()
    from common import stamp
    from http_workload import service_http
    from lib_workloads import churn_50k, mean_200k

    OUT_DIR.mkdir(exist_ok=True)
    began = time.perf_counter()
    trace = bool(args.trace)
    if args.workload == "service-http":
        run = service_http(args.seed, args.seconds, trace, args.tiny, ROOT, OUT_DIR)
    else:
        workload = mean_200k if args.workload == "mean-200k" else churn_50k
        run = workload(args.seed, args.seconds, trace, args.tiny)

    checks = run.checks
    if trace:
        values, units, mirrors = run.metrics, PER_LAYER, {}
    else:
        values, mirrors = end_to_end(args.workload, run.metrics, checks.failed, checks.attempted)
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "stamp": stamp(args.seed, run.backend, run.kernel),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "skipped": checks.skipped,
        "failures": checks.messages,
        "mirrors": mirrors,
        "details": run.details,
        "metrics": metrics,
        "wall_s": time.perf_counter() - began,
    }
    line = json.dumps(record, sort_keys=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(line + "\n")
    if run.tracer is not None:
        run.tracer.write_spans(str(OUT_DIR / f"{stem}-spans.jsonl"))
    print(line)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
