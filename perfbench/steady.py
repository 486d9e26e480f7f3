"""Steadiness self-check: run each workload many times and compare spreads.

Run from the repository root:

  python3 perfbench/steady.py                      # 10 runs of every workload
  python3 perfbench/steady.py --runs 5 --workload train-1k --sets 2

Each run is ``run.py --trace 0`` with its own seed, from 1 up, and the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric of
BENCHMARK.json the check prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound. A spread above the bound fails, ``setup_s`` included; a
spread above a third of the bound is flagged, since a steady benchmark
keeps every spread below that. With
``--sets 2`` the runs are repeated with the same seeds and each second
median must not be worse than the first by more than the bound. The
per-path metrics that ``run.py`` prints (refine_s, decoys_per_s,
train_steps_per_s, error_rate) are summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    wall = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    paths = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric" and parts[1] not in result["metrics"]:
            paths[parts[1]] = (float(parts[2]), parts[3])
    return result, paths, wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or names:
        medians = []
        for number in range(args.sets):
            values: dict[str, list[float]] = {}
            failed = 0
            walls = []
            for seed in range(1, args.runs + 1):
                result, paths, wall = one_run(workload, seed, spec["run_seconds"])
                walls.append(wall)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, (value, _) in paths.items():
                    values.setdefault(name, []).append(value)
                print(f"{workload} set {number + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f" ({result['attempted']} ops, run {wall:.1f} s)", flush=True)
            ok &= failed == 0
            print(f"\n{workload} set {number + 1}: {args.runs} runs, {failed} failed ops, "
                  f"{statistics.mean(walls):.1f} s per run on average")
            print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
            set_medians = {}
            for name, series in values.items():
                median, q1, q3, share = spread(series)
                set_medians[name] = median
                entry = next((e for e in spec["end_to_end"] if e["name"] == name), None)
                verdict = ""
                if entry is not None:
                    bound = entry["bound"]
                    if share > bound:
                        verdict, ok = "FAIL", False
                    elif share > bound / 3:
                        verdict = "wide"
                    else:
                        verdict = "ok"
                bound_text = f"{entry['bound']:.2f}" if entry else "-"
                print(f"  {name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{share:>9.3f}{bound_text:>8} {verdict}")
            medians.append(set_medians)
            print()
        if args.sets == 2:
            for entry in spec["end_to_end"]:
                name = entry["name"]
                change = worse_by(medians[0][name], medians[1][name], entry["better"])
                verdict = "FAIL" if change > entry["bound"] else "ok"
                ok &= verdict == "ok"
                print(f"  {workload} {name}: second median worse by {change:+.3f} "
                      f"(bound {entry['bound']}) {verdict}")
            print()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
