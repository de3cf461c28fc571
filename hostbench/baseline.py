#!/usr/bin/env python3
"""Writes a baseline file from run files made by collect.py.

    python3 hostbench/baseline.py --runs RUNS.jsonl [RUNS2.jsonl ...]
        --traced TRACED.jsonl --note TEXT --out hostbench/baseline/NAME.json

Every run file given to --runs is one set of untraced runs. For each set,
each workload and each end-to-end metric, the baseline records the median,
the quartiles, the spread (quartile distance over median), the extremes and
the bound. It also records each run's sim_digest by seed, and the per-layer
ledger of each workload's traced run. --note is kept verbatim (host, drift,
anything needed to read the numbers).
"""

import argparse
import json
import platform
import os

from benchstats import HELD_OUT_SEED, load_runs, load_spec, quartiles, spread, values

SCHEMA = "hostbench-baseline/1"


def summarize_set(runs, spec):
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        seeds = [r["seed"] for r in runs if r["workload"] == name and r["trace"] == 0]
        if not seeds:
            continue
        metrics = {}
        for m in spec["end_to_end"]:
            xs = values(runs, name, m["name"])
            q1, med, q3 = quartiles(xs)
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "median": med, "q1": q1, "q3": q3, "spread": spread(xs),
                "min": min(xs), "max": max(xs), "runs": len(xs),
            }
        digests = {str(r["seed"]): r.get("sim_digest") for r in runs
                   if r["workload"] == name and r["trace"] == 0}
        correct = all(r["result"]["correct"] for r in runs if r["workload"] == name)
        out[name] = {"seeds": seeds, "all_correct": correct, "metrics": metrics,
                     "sim_digest": digests}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", nargs="+", required=True)
    ap.add_argument("--traced", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    spec = load_spec()
    sets = [summarize_set(load_runs(p), spec) for p in a.runs]
    ledgers = {}
    for r in load_runs(a.traced):
        ledgers[r["workload"]] = {
            "seed": r["seed"], "sim_digest": r.get("sim_digest"),
            "correct": r["result"]["correct"],
            "metrics": {k: v for k, v in r["result"]["metrics"].items()},
        }
    doc = {
        "schema": SCHEMA,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "kernel": platform.release(), "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "held_out_seed": HELD_OUT_SEED,
        "note": a.note,
        "sets": sets,
        "ledger": ledgers,
    }
    os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")


if __name__ == "__main__":
    main()
