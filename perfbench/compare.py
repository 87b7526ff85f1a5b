#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result directories (or single record files) written by
run.py with ``--trace 0``, made with the same ``--seconds`` on the same
machine, ideally alternating parent and change runs. For each workload and
end-to-end metric this prints each side's median and quartiles over runs,
the share of pairs the change wins (the i-th parent run against the i-th
change run, in start order; ties count for neither side) and a verdict:

* improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread;
* unresolved  the parent's quartile spread, as a share of its median, is
              wider than the metric's bound, and not every change run beats
              every parent run;
* worse       the change's median is worse than the parent's by more than
              the bound fixed in BENCHMARK.json;
* no worse    otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> dict[str, list[dict]]:
    """Untraced records per workload, in the order the runs started."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["started"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(values))


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool):
    """(share of pairs the change wins, verdict) for one metric."""
    sign = -1.0 if lower_is_better else 1.0  # sign * (change - parent) > 0 is a win
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if pairs and win_share >= 0.9 and gain > p_q3 - p_q1:
        return win_share, "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return win_share, "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return win_share, "worse"
    return win_share, "no worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = (load_records(Path(a)) for a in argv)
    worse = 0
    header = f"{'workload':16} {'metric':20} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for name, m in metrics.items():
            p = [r["metrics"][name]["value"] for r in parent[workload] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[workload] if name in r["metrics"]]
            if not p or not c:
                continue
            share, result = verdict(p, c, m["bound"], m["better"] == "lower")
            worse += result == "worse"
            pairs = min(len(p), len(c))
            print(
                f"{workload:16} {name:20} {summary(p):>32} {summary(c):>32} {share:6.0%}  {result}"
                + (f" (n={len(p)}/{len(c)}, {pairs} pairs)" if pairs < 10 else "")
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
