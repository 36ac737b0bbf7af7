"""Alternating before/after benchmark pairs of two source trees, as one
``BENCH_*.json`` file.

    python3 tools/bench_pairs.py PARENT CHANGE OUTPUT --seeds 351-360 \\
        --claim "smooth-characteristics run_s_p50 falls: ..." \\
        [--parent-label fed7ab9] [--change-label "the src/ of this commit"]

PARENT and CHANGE are the roots of two checkouts, each a copy of its own
(say, ``git archive`` of the parent commit, and a copy of the changed
files), so that neither run reads or writes the other's files.  For each
seed, in order, and each workload of the change's BENCHMARK.json, the
script runs

    python3 bench/run.py --workload W --seed S --seconds R --trace 0

in each tree, R being BENCHMARK.json's ``run_seconds``, the two back to
back: the parent first on odd seeds and the change first on even seeds,
so that drift on the host does not favour one side.  It reads each run's ``.bench_results/W-seedS-trace0/result.json``
and writes OUTPUT with the keys ``claim``, ``command``, ``order``,
``trees``, ``summary`` and ``runs``.  Each tree's entry in ``trees`` holds
its label and the numpy that ran it, the same for both: the version, the
enabled SIMD dispatch targets and CPU features
(``output_digests.numpy_provenance``).  ``runs`` holds every result as
the harness wrote it, by side and workload.  ``summary`` holds, per workload
and for each metric of BENCHMARK.json's ``end_to_end`` list, the
quartiles of each side's run values, the number of pairs in which the
change is better, the relative change of the medians and their gap in
units of the parent's interquartile range (positive when the change is
better); then the failed and attempted calls of each side and whether the
two sides wrote the same output digests in every pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from output_digests import numpy_provenance  # beside this script

COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``351-360`` or ``1,4,9`` as a list of ints."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; the result.json it wrote."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    result = tree / ".bench_results" / f"{workload}-seed{seed}-trace0" / "result.json"
    return json.loads(result.read_text())


def quartiles(values: list) -> list:
    """q1, median and q3, interpolated between order statistics."""
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def compare(parent: list, change: list, lower_is_better: bool) -> dict:
    """The summary of one metric over the pairs (parent[i], change[i])."""
    p, c = quartiles(parent), quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    iqr = p[2] - p[0]
    gap = sign * (p[1] - c[1]) / iqr if iqr > 0 else None
    return {"parent_q1_median_q3": p,
            "change_q1_median_q3": c,
            "change_better_pairs": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "median_change": round(c[1] / p[1] - 1.0, 4),
            "median_gap_over_parent_iqr": None if gap is None else round(gap, 2)}


def summarize(runs: dict, seeds: list, metrics: dict) -> dict:
    """Per-workload summary of the paired runs."""
    summary = {}
    for workload in runs["parent"]:
        parent, change = runs["parent"][workload], runs["change"][workload]
        entry = {"pairs": len(parent), "seeds": seeds}
        for name, better in metrics.items():
            entry[name] = compare([r["metrics"][name] for r in parent],
                                  [r["metrics"][name] for r in change], better == "lower")
        entry["failed_calls"] = {side: sum(r["failed"] for r in runs[side][workload])
                                 for side in SIDES}
        entry["attempted_calls"] = {side: sum(r["attempted"] for r in runs[side][workload])
                                    for side in SIDES}
        entry["equal_digests_every_pair"] = all(
            a["digests"] == b["digests"] for a, b in zip(parent, change))
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--parent-label", default=None)
    parser.add_argument("--change-label", default=None)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    numpy = numpy_provenance()
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_side(trees[side], workload, seed, seconds)
                runs[side][workload].append(result)
                print(f"seed {seed} {workload:<24} {side:<6} "
                      f"run_s_p50 {result['metrics']['run_s_p50']:.6f}", file=sys.stderr)

    report = {
        "claim": args.claim,
        "command": COMMAND.format(seconds=seconds),
        "order": ("parent and change alternate which runs first from one seed to the "
                  "next; parent first on odd seeds, change first on even seeds; for "
                  f"each seed the workloads went {', '.join(workloads)}, the two sides "
                  "of a workload back to back; each side ran from its own copy of the "
                  "tree"),
        "trees": {side: {"label": getattr(args, f"{side}_label") or str(trees[side]),
                         "numpy": numpy}
                  for side in SIDES},
        "summary": summarize(runs, args.seeds, metrics),
        "runs": runs,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
