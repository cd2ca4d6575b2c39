"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python tests/bench_pairs.py PARENT_DIR [--pairs N] [--seed S]
                                [--workload NAME ...] [--json PATH]

PARENT_DIR is the root of the parent's tree (exported with ``git archive``
or ``git clone``); the change is the tree holding this script. Each side
runs its own ``bench/run.py`` with its own ``src``, untraced, at the same
seed and at the run length ``run_seconds`` of the change's BENCHMARK.json,
the length the benchmark itself is run at. For every workload (default:
all of BENCHMARK.json's) the script runs N pairs (default 10); pair k uses
seed S + k (default S = 1), and the parent runs first in even pairs and
second in odd ones.

For every end-to-end metric of the change's BENCHMARK.json it prints each
side's median and quartiles over the N runs and the change's wins: pairs
in which the change reads better, by the metric's ``better`` direction
(ties count for neither side). ``gain`` says whether a claim of a gain
would hold: wins in at least nine tenths of the pairs, and medians apart,
in the better direction, by more than the distance between the parent's
quartiles. ``worse`` says whether the change's median is worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median: the no-regression test of a change that claims no gain. Several
workloads may follow one ``--workload``. ``--json PATH`` also writes the
summary to PATH: the pairs and run length, then per workload its seeds
and, per metric, each side's runs, median and quartiles, the wins and
the gain and worse verdicts. A run that fails, or whose result is not
``correct``, stops the script with exit code 1. The script is not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run of the tree at root: metric -> value."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed} gave incorrect outputs\n"
                         f"{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's runs, median and quartiles, the change's wins, and the
    gain and regression verdicts."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {"parent": {"runs": parent, "median": pm, "quartiles": [p1, p3]},
            "change": {"runs": change, "median": cm, "quartiles": [c1, c3]},
            "wins": wins,
            "gain": wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1,
            "worse": sign * (cm - pm) < -metric["bound"] * abs(pm)}


def line(name: str, summary: dict) -> str:
    """The printed line of one metric's summary."""
    (p1, p3), (c1, c3) = summary["parent"]["quartiles"], summary["change"]["quartiles"]
    return (f"  {name:15s} parent {summary['parent']['median']:10.4g} [{p1:.4g}, {p3:.4g}]"
            f"  change {summary['change']['median']:10.4g} [{c1:.4g}, {c3:.4g}]"
            f"  wins {summary['wins']}/{len(summary['parent']['runs'])}"
            f"  gain {'yes' if summary['gain'] else 'no'}"
            f"  worse {'yes' if summary['worse'] else 'no'}")


def main(argv: list[str]) -> int:
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="extend", nargs="+", choices=names)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": HERE}
    report = {"pairs": args.pairs, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        runs = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.seed + k,
                                           spec["run_seconds"]))
        seeds = list(range(args.seed, args.seed + args.pairs))
        print(f"{workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}", flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metrics[name] = summarise(metric, [r[name] for r in runs["parent"]],
                                      [r[name] for r in runs["change"]])
            print(line(name, metrics[name]), flush=True)
        report["workloads"][workload] = {"seeds": seeds, "metrics": metrics}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
