"""Compare the benchmark records of two commits.

Usage (from the repository root):

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced records that ``run.py --out DIR`` writes,
one per workload and seed. Records are paired by workload and seed. For every
end-to-end metric of ``BENCHMARK.json`` and every workload, one row gives each
side's median and quartiles, the pairs the change won and lost, and a
verdict from ``verdict``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge paired samples of one metric; parent[i] and change[i] ran on one seed.

    * better: at least MIN_PAIRS pairs, the change wins at least WIN_SHARE of
      them (ties count for neither side), and the medians differ by more than
      the distance between the parent's quartiles.
    * worse: the change's median is worse than the parent's by more than
      bound, a share of the parent's median.
    * unresolved: otherwise, when the parent's quartile distance is wider than
      bound times its median, unless every change sample beats every parent
      sample.
    * unchanged: otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change samples")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (p - c) < 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mp - mc)
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        outcome = "better"
    elif -gain > bound * abs(mp):
        outcome = "worse"
    elif q3 - q1 > bound * abs(mp) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent_median": mp,
        "parent_quartiles": (q1, q3),
        "change_median": mc,
        "change_quartiles": quartiles(change),
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "verdict": outcome,
    }


def _summary(median: float, q: tuple[float, float]) -> str:
    return f"{median:.5g} [{q[0]:.5g}, {q[1]:.5g}]"


def load_records(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> untraced run record."""
    records = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        records[(r["workload"], r["seed"])] = r
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_records(args.parent), load_records(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("error: no workload and seed has a record on both sides", file=sys.stderr)
        return 2
    for key in sorted(set(parent) ^ set(change)):
        print(f"note: {key[0]} seed {key[1]} has a record on one side only")
    workloads = sorted({w for w, _ in keys})
    print(f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won/lost/pairs':<14} verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        for w in workloads:
            seeds = [s for ww, s in keys if ww == w]
            p = [parent[(w, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(w, s)]["metrics"][name]["value"] for s in seeds]
            v = verdict(p, c, metric["better"], metric["bound"])
            counts = f"{v['wins']}/{v['losses']}/{v['pairs']}"
            print(f"{w:<10} {name:<12} {_summary(v['parent_median'], v['parent_quartiles']):<32} "
                  f"{_summary(v['change_median'], v['change_quartiles']):<32} "
                  f"{counts:<14} {v['verdict']} "
                  f"(bound {metric['bound']:.0%}, unit {metric['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
