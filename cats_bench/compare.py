#!/usr/bin/env python3
"""Compares two cats_bench suite results (run.py's suite-seed<N>.json).

    python3 cats_bench/compare.py BASE CHANGED

For each workload and each end-to-end metric it prints both medians with
their quartiles, the ratio CHANGED/BASE and a verdict.  "Spread" is the
distance between a side's quartiles as a share of its median; "beats" is in
the metric's better direction.

  better        every CHANGED run beats every BASE run, and the medians
                differ by more than BASE's spread
  worse         CHANGED's median is worse than BASE's by more than the
                metric's bound, and either both spreads are within the bound
                or every BASE run beats every CHANGED run
  unresolved    a spread is wider than the bound and the runs do not separate
  within bound  otherwise
  missing       the metric is in only one of the files

failed_ops_share has bound 0: one failed operation in CHANGED is worse.
Bounds and directions come from BASE.  Exits 1 if any verdict is worse,
unresolved or missing, else 0.
"""
import json
import statistics
import sys
from dataclasses import dataclass


@dataclass
class Row:
    workload: str
    metric: str
    base: list
    changed: list
    verdict: str


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, changed, better, bound):
    if bound == 0:
        return "worse" if max(changed) > 0 else "within bound"
    sign = 1 if better == "lower" else -1
    med_b = statistics.median(base)
    med_c = statistics.median(changed)
    if med_b == 0:
        worsening = 0.0 if med_c == 0 else sign * float("inf")
    else:
        worsening = sign * (med_c - med_b) / abs(med_b)

    def beats(x, y):
        return sign * (x - y) < 0

    if all(beats(c, b) for c in changed for b in base) and \
            -worsening > spread(base):
        return "better"
    if all(beats(b, c) for c in changed for b in base) and worsening > bound:
        return "worse"
    if max(spread(base), spread(changed)) > bound:
        return "unresolved"
    return "worse" if worsening > bound else "within bound"


def compare(base, changed):
    rows = []
    for workload, b in base["workloads"].items():
        c = changed["workloads"].get(workload, {"values": {}})
        for metric, decl in base["metrics"].items():
            bv = b["values"].get(metric)
            cv = c["values"].get(metric)
            if bv is None and cv is None:
                continue
            if bv is None or cv is None:
                rows.append(Row(workload, metric, bv or [], cv or [], "missing"))
                continue
            rows.append(Row(workload, metric, bv, cv,
                            verdict(bv, cv, decl["better"], decl["bound"])))
    return rows


def describe(values):
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[1])
    rows = compare(base, load(argv[2]))
    print(f"{'workload':14s} {'metric':20s} {'base median [q1, q3]':>34s} "
          f"{'changed median [q1, q3]':>34s} {'ratio':>7s}  verdict")
    for r in rows:
        ratio = "-"
        if r.base and r.changed and statistics.median(r.base):
            ratio = f"{statistics.median(r.changed) / statistics.median(r.base):.3f}"
        print(f"{r.workload:14s} {r.metric:20s} {describe(r.base):>34s} "
              f"{describe(r.changed):>34s} {ratio:>7s}  {r.verdict}")
    bad = [r for r in rows if r.verdict in ("worse", "unresolved", "missing")]
    print(f"{len(rows)} comparisons, {len(bad)} worse, unresolved or missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
