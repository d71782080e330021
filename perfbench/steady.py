#!/usr/bin/env python3
"""Steadiness mode: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload analysis --runs 10 --seed0 1
    python3 perfbench/steady.py --workload analysis --runs 10 --seed0 101 \\
        --compare .perfbench_out/steady-analysis-seed1.json

Each run is ``perfbench/run.py`` with its own seed (``seed0``,
``seed0 + 1``, ...) and the ``run_seconds`` of BENCHMARK.json.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, beside the metric's bound; a spread at
or above a third of the bound is flagged UNSTEADY and makes the exit code
1.  ``--compare`` also prints how far each median moved against an
earlier summary, flagged when a metric got worse by more than its bound.
Summaries are saved under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    spec = _spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.seed0, args.seed0 + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    summary = {}
    unsteady = 0
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed0}.."
          f"{args.seed0 + args.runs - 1}, {seconds:g} s each")
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        width = spread(series)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and width >= bound / 3:
            flag = "  UNSTEADY"
            unsteady += 1
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": width, "values": series}
        print(f"{name:38} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{width:8.4f} {bound if bound is not None else '-':>6}{flag}")

    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
        print(f"\nmedians against {args.compare}:")
        for name, now in summary.items():
            if name not in earlier or name not in bounds:
                continue
            before = earlier[name]["median"]
            change = (now["median"] - before) / before if before else 0.0
            worse = change if bounds[name]["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > bounds[name]["bound"] else ""
            print(f"{name:38} {before:12.5g} -> {now['median']:12.5g} "
                  f"({change:+.2%}){flag}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{args.workload}-seed{args.seed0}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary written to {os.path.relpath(path, ROOT)}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
