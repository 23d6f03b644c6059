"""Run the benchmark over several seeds and print every metric by name.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --workloads plan --seeds 1-5 --trace 1

For each workload and metric it prints the unit, the median of the
per-run values, their first and third quartile, the spread (the distance
between the quartiles as a share of the median) and the number of runs.
Per-command times (solve_s, eval_s, ...) come from the samples each run
prints before its result line; ``samples`` counts the child processes
behind them. For end-to-end metrics the spread is set against the bound
in BENCHMARK.json: a benchmark is steady when every spread stays below a
third of its bound. The exit code is 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in spec.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail "))
    return json.loads(lines[-1]), detail


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    print(f"{'workload':8} {'metric':24} {'unit':6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'runs':>4} {'samples':>7}  note")
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.trace) for s in seeds(args.seeds)]
        rows: dict[str, tuple[str, list[float], int]] = {}
        for result, detail in runs:
            for name, metric in result["metrics"].items():
                unit, values, count = rows.get(name, (metric["unit"], [], 0))
                rows[name] = (unit, values + [metric["value"]], count + 1)
            # Per-command medians, calibrated like task_s; calibration_s
            # itself is shown as measured.
            per_command = dict(detail.get("calibrated", {}))
            if "calibration_s" in detail.get("samples", {}):
                per_command["calibration_s"] = detail["samples"]["calibration_s"]
            for name, samples in per_command.items():
                unit, values, count = rows.get(name, ("s", [], 0))
                rows[name] = (unit, values + [statistics.median(samples)], count + len(samples))
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        rows["failed_ops"] = (
            "ratio", [r["failed"] / r["attempted"] for r, _ in runs], attempted
        )
        for name, (unit, values, count) in rows.items():
            median, q1, q3, spread = summary(values)
            note = ""
            if name in bounds:
                ok = spread < bounds[name] / 3
                steady &= ok
                note = f"bound {bounds[name]}: {'steady' if ok else 'SPREAD TOO WIDE'}"
            print(f"{workload:8} {name:24} {unit:6} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {len(values):4d} {count:7d}  {note}")
        if failed:
            steady = False
    return 0 if steady or args.trace else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
