"""Benchmark of the phonoscribe pipeline: train, featurize, eval, infer, audit.

    python3 perfbench/run.py --workload train_shipped --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Workloads (see BENCHMARK.json for why each exists):

  train_shipped  training.train_run at the shipped model size, B=20
  train_gate     training.train_run at the acceptance-gate size, B=8
  audit_corpus   filter, featurize, eval, suspects and infer via cli.main

BLAS and OpenMP are pinned to one thread before NumPy is imported, and the
run stays in one process and thread, except for the child process that
writes the audit checkpoint during set-up. Inputs are generated from
--seed and set up at least 3 times and until set-up has taken 2 CPU
seconds in all (the median is ``setup_s``); an untimed warm-up call
records the first training step, or the reference transcriptions. Then
iterations run back to back, each starting after the previous returned,
until the next one would end after --seconds, and the warm-up's first
step is checked against a float64 recomputation. Every output is checked; a failed check counts the
operation (train step, clip or command) as failed and makes the exit
code 1.

Times are CPU seconds of this process (``time.process_time``; set-up
times add the checkpoint writer's). The run is one thread and runs no
process while it measures, so on a core of its own that equals wall
time; on a shared virtual machine it leaves out the time the
hypervisor ran other guests on the core (steal), which made whole runs of
the same code up to a third slower in wall time. The loop budget, and the
``iterations`` entry of the report, use wall time.

--trace 0 reports the end-to-end metrics. --trace 1 spends half of
--seconds on untraced iterations, then runs a fixed number of iterations
with every layer's entry points wrapped in spans (tracer.py), each after
one more untraced iteration, and reports the per-layer metrics plus the
tracing overhead between the traced and those untraced iterations. The
spans themselves are written to stderr as one JSON line at the end.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is a fuller report: the environment, every
metric with its sample count, median and upper percentile, and the
problems any check found. Work files go to .perfbench_work/ under the
current directory and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3  # at least, and until SETUP_SECONDS have been spent
SETUP_SECONDS = 2.0
ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_shipped", "train_gate", "audit_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model and inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def distribution(values: list[float], latency: bool) -> dict:
    """Median and, for a latency, the highest percentile with at least 10
    samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if latency and len(ordered) > 10:
        k = len(ordered) - 11
        out["upper"] = {"percentile": round(100 * (k + 1) / len(ordered), 2),
                        "value": ordered[k]}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def cpu_seconds() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(workload, seconds: float, first_index: int = 1) -> list:
    """Closed loop: iterate until the next iteration would end past ``seconds``."""
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(workload.iterate(first_index + len(outcomes)))
        if time.perf_counter() - start + outcomes[-1].wall_s > seconds:
            return outcomes


def run(args, work_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    import tracer
    import workloads

    workload = workloads.make(args.workload, args.seed, work_dir, args.smoke)
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = cpu_seconds()
        workload.setup()
        setup_times.append(cpu_seconds() - start)
    outcomes = [workload.warm_up()]

    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    if args.trace:
        # Traced iterations alternate with untraced ones, so that the
        # overhead compares iterations run at the same point of the run.
        outcomes += measure(workload, args.seconds / 2)
        spans = tracer.Tracer()
        untraced, traced = [], []
        for _ in range(workload.traced_iterations):
            untraced.append(workload.iterate(len(outcomes) + 1))
            with spans:
                traced.append(workload.iterate(len(outcomes) + 2))
            outcomes += [untraced[-1], traced[-1]]
        outcomes.append(workload.final_check())
        overhead = 100 * (statistics.median(o.cpu_s for o in traced)
                          / statistics.median(o.cpu_s for o in untraced) - 1)
        values = tracer.layer_metrics(spans, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.LAYER_METRICS}
        report["layers"] = {name: {"value": values[name], "unit": unit,
                                   "kind": kind}
                            for name, unit, kind in tracer.LAYER_METRICS}
        report["traced_iterations"] = len(traced)
        report["untraced_iterations"] = len(untraced)
        print(json.dumps({"spans": spans.dump()}), file=sys.stderr)
    else:
        timed = measure(workload, args.seconds)
        outcomes += timed
        summary = workload.summary(timed)
        values = {
            "throughput_per_s": statistics.median(summary["throughput"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        outcomes.append(workload.final_check())
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        report["metrics"] = {
            name: {"unit": unit, **distribution(samples, unit == "s")}
            for name, (unit, samples) in summary["report"].items()}
        report["metrics"]["setup_s"] = {"unit": "s",
                                        **distribution(setup_times, False)}
        report["metrics"]["peak_rss_mb"] = metrics["peak_rss_mb"]
        report["iterations"] = {
            "wall_s": distribution([o.wall_s for o in timed], False),
            "cpu_s": distribution([o.cpu_s for o in timed], False),
        }

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    report["error_rate"] = {"value": failed / attempted if attempted else 1.0,
                            "unit": "ratio", "failed": failed,
                            "attempted": attempted}
    report["problems"] = problems[:20]
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import phonoscribe
    except ImportError as e:
        print(f"perfbench: cannot import phonoscribe from {src}: {e}",
              file=sys.stderr)
        return 2
    if src not in Path(phonoscribe.__file__).resolve().parents:
        print(f"perfbench: phonoscribe was imported from {phonoscribe.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    work_dir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result, report = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
