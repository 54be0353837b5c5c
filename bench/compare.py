"""Compare two result sets written by ``run.py --out``.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

For every (workload, metric) pair present in both sets it prints each
side's median and quartiles, the pairs won and lost by the change, and a
verdict by this rule:

- ``unresolved``: the parent's own inter-quartile spread, as a share of its
  median, is wider than the metric's bound, and not every change run beats
  (or loses to) every parent run;
- ``better``: the change wins at least 9/10 of at least 10 pairs, ties
  counting for neither, and the medians differ by more than the parent's
  inter-quartile distance (``unconfirmed`` with fewer than 10 pairs);
- ``worse``: the change's median is worse than the parent's by more than the
  bound (or, for a metric without a bound, it loses 9/10 of the pairs by
  more than the parent's inter-quartile distance);
- ``within bound`` / ``no claim`` otherwise.

Runs pair up by seed; the bound and direction come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): {seed: value}} from one JSONL result set."""
    table: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, value in record["metrics"].items():
                table.setdefault((record["workload"], name), {})[record["seed"]] = value
    return table


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str | None, bound: float | None):
    """(verdict, wins, losses, pairs) for one metric on one workload."""
    sign = {"lower": -1, "higher": 1}.get(better, 0)
    seeds = sorted(parent.keys() & change.keys())
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    p1, pmed, p3 = quartiles(list(parent.values()))
    _c1, cmed, _c3 = quartiles(list(change.values()))
    if sign == 0:
        return "no claim", wins, losses, len(pairs)
    gain = (cmed - pmed) * sign
    iqr = p3 - p1
    if bound is not None and pmed and iqr / abs(pmed) > bound:
        if all((c - p) * sign > 0 for c in change.values() for p in parent.values()):
            return "better (every run)", wins, losses, len(pairs)
        if all((c - p) * sign < 0 for c in change.values() for p in parent.values()):
            return "worse (every run)", wins, losses, len(pairs)
        return "unresolved", wins, losses, len(pairs)
    if wins >= 0.9 * len(pairs) and gain > iqr:
        if len(pairs) < 10:
            return "better, unconfirmed (under 10 pairs)", wins, losses, len(pairs)
        return "better", wins, losses, len(pairs)
    if bound is not None:
        if -gain > bound * abs(pmed):
            return "worse", wins, losses, len(pairs)
        return "within bound", wins, losses, len(pairs)
    if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse", wins, losses, len(pairs)
    return "no claim", wins, losses, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':11s} {'metric':48s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'won/lost/pairs':>15s}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        m = meta.get(name, {})
        result, wins, losses, pairs = verdict(parent[key], change[key],
                                              m.get("better"), m.get("bound"))
        cells = []
        for side in (parent[key], change[key]):
            q1, med, q3 = quartiles(list(side.values()))
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{workload:11s} {name:48s} {cells[0]:>36s} {cells[1]:>36s} "
              f"{f'{wins}/{losses}/{pairs}':>15s}  {result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
