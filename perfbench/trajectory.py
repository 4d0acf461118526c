"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/BENCH_1.json

Runs ``run.py`` once per (workload, seed) with BENCHMARK.json's
``run_seconds``, one run after another, and records per workload:

- for each end-to-end metric, the values, their median and quartiles, and
  the spread (quartile distance over the median) next to the metric's bound;
- the median over seeds of each per-stage metric of the report line;
- the per-layer metrics of one traced run on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def run(workload: str, seed: int, seconds: int, trace: int):
    """(report, result) of one run, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        problems = json.loads(lines[-2])["problems"] if len(lines) >= 2 else []
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
              f"{problems}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point: dict = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
                   "workloads": {}}
    failed = False
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        stages: dict[str, list[float]] = {}
        for seed in args.seeds:
            outcome = run(name, seed, bench["run_seconds"], 0)
            if outcome is None:
                failed = True
                continue
            report, result = outcome
            point.setdefault("environment", report["environment"])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            for metric, entry in report["metrics"].items():
                stages.setdefault(metric, []).append(
                    entry["median"] if "median" in entry else entry["value"])
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{m}={e['value']:.6g}"
                              for m, e in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        traced = run(name, args.seeds[0], bench["run_seconds"], 1)
        if traced is None or not all(len(v) >= 2 for v in values.values()):
            failed = True
            continue
        point["workloads"][name] = {
            "end_to_end": {m: summarize(v, bounds[m]) for m, v in values.items()},
            "stages": {m: statistics.median(v) for m, v in stages.items()},
            "layers": {m: e["value"] for m, e in traced[1]["metrics"].items()},
        }
    args.out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
