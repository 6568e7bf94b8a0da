"""Run alternating benchmark pairs on two source trees and summarise them.

    python scripts/bench_pairs.py [PARENT CHANGE] [--workload W ...] [--pairs N]
        [--seconds S] [--seed0 K] [--out FILE] [--about TEXT]

PARENT and CHANGE are the roots of two source checkouts; with neither, both
are this checkout (an A/A run).  Pair i of a workload runs

    python3 bench/run.py --workload W --seed K+i --seconds S --trace 0

once in each tree, from that tree's root, one after the other: the parent
first on even i and the change first on odd i, so that a drift of the
machine's speed falls on both sides alike.  Seeds go on counting across the
workloads of one call.  The record has the layout of the committed
BENCH_<n>.json files: ``about``, ``pairs`` (workload, seed, the side that
ran first, ``bytecode`` and the JSON line bench/run.py printed for each
side) and ``summary``, per workload and end-to-end metric of
BENCHMARK.json: the median and the inclusive quartiles of each side, the
pairs the change won, and the relative worsening of the change's median
against the parent's (negative is better) beside the metric's bound.
``all_correct`` is true when every run of both sides was correct with no
failed op.  With --out the pairs already in FILE are kept and the summary
covers them all; without it the record goes to stdout.  With no arguments
at all, one A/A pair of ``exact`` at 1 s shows that the harness runs.

``bytecode`` holds the two facts that move ``setup_s`` most, since its
probe compiles every corrdyn module it imports when no bytecode cache
holds it: ``written``, whether the runs may write bytecode caches (false
when PYTHONDONTWRITEBYTECODE is set to a non-empty string, which the runs
inherit), and ``cached``, per side, whether the tree's
src/corrdyn/__pycache__ existed before the pair ran; in a tree's first
pair, that is before its first run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line bench/run.py prints last, run in tree."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def has_pycache(tree: Path) -> bool:
    return (tree / "src" / "corrdyn" / "__pycache__").is_dir()


def summarise(pairs: list, metrics: list) -> dict:
    summary = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        mine = [pair for pair in pairs if pair["workload"] == workload]
        entry = {"pairs": len(mine), "all_correct": all(
            pair[side]["correct"] and pair[side]["failed"] == 0
            for pair in mine for side in ("parent", "change"))}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = {side: [pair[side]["metrics"][name]["value"] for pair in mine]
                      for side in ("parent", "change")}
            stats = {}
            for side, xs in values.items():
                q1, _, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                             if len(xs) > 1 else xs * 3)
                stats[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
            before, after = stats["parent"]["median"], stats["change"]["median"]
            entry[name] = dict(
                stats,
                change_wins=sum(sign * (c - p) < 0 for p, c in zip(*values.values())),
                relative_worsening=round(sign * (after - before) / before, 4),
                bound=metric["bound"],
            )
        summary[workload] = entry
    return summary


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="PARENT CHANGE")
    ap.add_argument("--workload", action="append", help="repeatable; default exact")
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--about")
    args = ap.parse_args(argv)
    if len(args.trees) not in (0, 2) or args.pairs < 1 or not args.seconds > 0:
        ap.print_usage(sys.stderr)
        return 2
    parent, change = [Path(t).resolve() for t in args.trees] or [ROOT, ROOT]
    for tree in (parent, change):
        if not (tree / "bench" / "run.py").is_file():
            print(f"no bench/run.py under {tree}", file=sys.stderr)
            return 2
    record = {"about": "", "pairs": []}
    if args.out is not None and args.out.is_file():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    if args.about is not None:
        record["about"] = args.about
    seed = args.seed0
    for workload in args.workload or ["exact"]:
        for i in range(args.pairs):
            order = [("parent", parent), ("change", change)][::1 if i % 2 == 0 else -1]
            bytecode = {"written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
                        "cached": {side: has_pycache(tree) for side, tree in order}}
            runs = {side: run_side(tree, workload, seed, args.seconds) for side, tree in order}
            pair = {"workload": workload, "seed": seed, "first": order[0][0],
                    "bytecode": bytecode, "parent": runs["parent"], "change": runs["change"]}
            print(f"{workload} seed {seed}: ops/s parent "
                  f"{pair['parent']['metrics']['ops_per_s']['value']:.1f}, change "
                  f"{pair['change']['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)
            record["pairs"].append(pair)
            seed += 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record["summary"] = summarise(record["pairs"], bench["end_to_end"])
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
