"""The strumscribe benchmark: one command, two CLI workloads.

    python3 strumbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
For each workload this generates seeded inputs (inputs.py), times a fresh
interpreter's set-up several times (probe.py), then starts one closed-loop
client in a fresh process (worker.py) that drives `strumscribe.cli.main`
in-process and checks every op's outputs. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it runs the loop untraced and then
traced for half the time each, and prints the per-layer metrics of the
traced half (tracer.py) plus the tracing overhead. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Inputs and outputs live in a scratch directory under `.strumbench/` in the
checkout, removed at exit; the traced run's spans are kept there as
`trace-<workload>-seed<n>.json`. `record.json` holds the expected output
digests for the default seed, the baseline numbers and the layer map.
"""

from __future__ import annotations

import os

# One BLAS thread (<= nproc) keeps single-client timings steady; set before
# numpy loads here and inherited by every process started below.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".strumbench"
RECORD = BENCH_DIR / "record.json"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
SUBPROCESS_TIMEOUT = 100

def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    leaves TAIL_BEYOND samples beyond it, or the maximum if there are too
    few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10, TAIL_BEYOND


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy.linalg  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fp:
            paths = {line.split()[-1] for line in fp if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return int(getattr(lib, symbol)())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def time_setup(vocab: str) -> list[float]:
    """Wall times of fresh interpreters running probe.py."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), vocab],
                       check=True, timeout=SUBPROCESS_TIMEOUT, capture_output=True)
        times.append(time.perf_counter() - started)
    return times


def per_layer_metrics(per_op: list[dict], overhead: float) -> dict:
    """Median self time per op and share of op wall time for every traced
    function, median per-op counters, and the tracing overhead."""
    from tracer import COUNTERS, HOOK_SPAN, OP_SPAN, SPAN_NAMES, SUMMED_COUNTERS

    metrics: dict = {}
    total_wall = sum(op["wall"] for op in per_op)
    for name in SPAN_NAMES:
        selves = [op["self"].get(name, 0.0) for op in per_op]
        metrics[f"{name}.self_s"] = (statistics.median(selves), "s")
        metrics[f"{name}.share"] = (sum(selves) / total_wall, "ratio")
    for name in (OP_SPAN, HOOK_SPAN):
        metrics[f"{name}.share"] = (sum(op["self"].get(name, 0.0) for op in per_op) / total_wall, "ratio")
    for name in COUNTERS:
        if name in SUMMED_COUNTERS:
            values = [op["counters"].get(name, 0.0) for op in per_op]
            metrics[name] = (statistics.median(values), "count")
        else:
            values = [op["counters"][name] for op in per_op if name in op["counters"]]
            metrics[name] = (statistics.median(values) if values else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: dict,
                 update_record: bool) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        manifest = inputs.write_workload(workload, seed, scratch / "inputs")
        manifest_path = scratch / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        setup = time_setup(manifest["vocab"])
        config = {
            "src": str(SRC),
            "manifest": str(manifest_path),
            "out_dir": str(scratch / "out"),
            "seconds": seconds,
            "trace": trace,
            "trace_path": str(WORK_DIR / f"trace-{workload}-seed{seed}.json"),
            "result_path": str(scratch / "result.json"),
            "expected_digests": record["expected_digests"].get(workload)
            if seed == DEFAULT_SEED and not update_record else None,
        }
        config_path = scratch / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(config_path)],
                              timeout=SUBPROCESS_TIMEOUT + seconds, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{workload} client exited {done.returncode}:\n{done.stderr[-2000:]}")
        result = json.loads(Path(config["result_path"]).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = result["untraced"]
    loops = [untraced] + ([result["traced"]] if trace else [])
    attempted = 1 + sum(len(loop["latencies"]) for loop in loops)
    failed = (not result["warm_up_ok"]) + sum(loop["failed"] for loop in loops)
    latencies = untraced["latencies"]
    tail, tail_pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "measures_per_s": (untraced["measures"] / sum(latencies), "measures/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    if trace:
        overhead = statistics.median(result["traced"]["latencies"]) - metrics["latency_p50_s"][0]
        layer = per_layer_metrics(result["per_op"], overhead)
    else:
        metrics["strum_f1"] = (result["quality"]["strum_f1"], "ratio")
        metrics["pattern_disc"] = (result["quality"]["pattern_disc"], "changes/measure")
        layer = {}
    if update_record:
        record["expected_digests"][workload] = result["song_digests"]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "failures": result["failures"],
        "digest": result["pool_digest"],
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "end_to_end": metrics,
        "per_layer": layer,
    }


def _print_report(report: dict) -> None:
    name = report["workload"]
    for metric, (value, unit) in report["end_to_end"].items():
        note = ""
        if metric == "latency_tail_s":
            note = f"  (p{report['tail_percentile']:g} of {report['samples']} ops, {report['tail_beyond']} beyond)"
        print(f"{name:16s} {metric:40s} {value:14.6g} {unit}{note}")
    print(f"{name:16s} {'failed_ops_ratio':40s} {report['failed_ops_ratio']:14.6g} ratio"
          f"  ({report['failed']} of {report['attempted']} ops)")
    for metric, (value, unit) in report["per_layer"].items():
        print(f"{name:16s} {metric:40s} {value:14.6g} {unit}")
    print(f"{name:16s} output digest {report['digest']}")
    for failure in report["failures"]:
        print(f"{name:16s} FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-record", action="store_true",
                        help="store this run's output digests as the expected ones (default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "strumscribe" / "cli.py").is_file():
        print(f"error: no strumscribe package under {SRC}", file=sys.stderr)
        return 2
    if args.update_record and args.seed != DEFAULT_SEED:
        print(f"error: --update-record needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))

    reports = []
    for workload in workloads:
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), record,
                                  args.update_record)
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_report(report)
        reports.append(report)
    if args.update_record:
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def metric_values(report: dict, prefix: str) -> dict:
        chosen = report["per_layer"] if args.trace else report["end_to_end"]
        return {f"{prefix}{k}": {"value": v, "unit": u} for k, (v, u) in chosen.items()}

    metrics: dict = {}
    for report in reports:
        metrics.update(metric_values(report, "" if len(reports) == 1 else f"{report['workload']}."))
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
