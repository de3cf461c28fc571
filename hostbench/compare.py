#!/usr/bin/env python3
"""Compares two sets of benchmark runs, for example parent and change.

    python3 hostbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are run files written by collect.py with identical benchmark
code and settings. For each workload and end-to-end metric it prints each
side's median and quartiles and one verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side; at least 10 pairs) and the medians differ, in
              the better direction, by more than the parent's quartile
              distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, and the run-to-run spread (quartile distance over
              median) of either side is wider than the bound, or there
              are fewer than 10 pairs to back a gain;
  unchanged   otherwise.

Runs pair up by seed when both sides ran the same seeds, otherwise by
position. It also reports whether each pair produced the same sim_digest
(byte-identical simulated records) and any run that was not correct.
Exits with 1 if any verdict is worse or any run is not correct.
"""

import argparse
import sys

from benchstats import load_runs, load_spec, quartiles, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def pairs_of(parent, change, workload):
    p = [r for r in parent if r["workload"] == workload and r["trace"] == 0]
    c = [r for r in change if r["workload"] == workload and r["trace"] == 0]
    by_seed = {r["seed"]: r for r in c}
    if p and all(r["seed"] in by_seed for r in p) and len(by_seed) == len(c):
        return [(r, by_seed[r["seed"]]) for r in p]
    return list(zip(p, c))


def verdict(pv, cv, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (quartiles(cv)[1] - quartiles(pv)[1])
    q1, pmed, q3 = quartiles(pv)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    wide = spread(pv) > bound or spread(cv) > bound
    all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1 and (not wide or all_better):
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), wins, losses
    if -gain > bound * abs(pmed):
        return "worse", wins, losses
    return ("unresolved" if wide else "unchanged"), wins, losses


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    a = ap.parse_args()
    spec = load_spec()
    parent, change = load_runs(a.parent), load_runs(a.change)
    bad = False
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            if not r["result"]["correct"]:
                bad = True
                print(f"NOT CORRECT: {side} {r['workload']} seed {r['seed']} "
                      f"failed {r['result']['failed']}/{r['result']['attempted']}")
    print(f"{'workload':14} {'metric':14} {'parent q1/median/q3':38} "
          f"{'change q1/median/q3':38} {'wins':>5} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        pairs = pairs_of(parent, change, name)
        if not pairs:
            print(f"{name:14} no runs on both sides")
            continue
        for m in spec["end_to_end"]:
            metric = m["name"]
            vals = [(p["result"]["metrics"][metric]["value"],
                     c["result"]["metrics"][metric]["value"]) for p, c in pairs]
            pv = [a for a, _ in vals]
            cv = [b for _, b in vals]
            v, wins, losses = verdict(pv, cv, vals, m["better"], m["bound"])
            bad |= v == "worse"
            fmt = lambda xs: "/".join(f"{q:.6g}" for q in quartiles(xs))
            print(f"{name:14} {metric:14} {fmt(pv):38} {fmt(cv):38} "
                  f"{wins:>2}:{losses:<2} {m['bound']:>6}  {v}")
        digests = [(p.get("sim_digest"), c.get("sim_digest")) for p, c in pairs]
        same = sum(1 for d, e in digests if d is not None and d == e)
        print(f"{name:14} sim_digest identical in {same} of {len(pairs)} pairs")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
