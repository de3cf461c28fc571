#!/usr/bin/env python3
"""Runs the benchmark repeatedly and appends each run's result to a run file.

    python3 hostbench/collect.py --out runs.jsonl [--workloads a,b]
        [--seeds 1,2,3 | --count N] [--seconds S] [--trace 0|1]

Each seed runs every chosen workload in turn, so slow drift of the host
spreads over all workloads instead of landing on one. Each line of the
run file is {"workload", "seed", "trace", "seconds", "sim_digest", "result"}. At the end
the spread of every end-to-end metric is printed against its bound; pass
two run files to compare.py to judge a change.
"""

import argparse
import json
import os
import subprocess
import sys

from benchstats import HERE, ROOT, load_runs, load_spec, quartiles, spread, values


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"collect: {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    digest = next((l.split("=", 1)[1].strip() for l in lines if l.startswith("sim_digest =")), None)
    return json.loads(lines[-1]), digest


def summarize(runs, spec, trace):
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    for w in spec["workloads"]:
        rows = [(m, values(runs, w["name"], m["name"], trace)) for m in metrics]
        rows = [(m, xs) for m, xs in rows if xs]
        if not rows:
            continue
        print(f"{w['name']} ({len(rows[0][1])} runs)")
        for m, xs in rows:
            q1, med, q3 = quartiles(xs)
            bound = m.get("bound")
            note = "" if bound is None else f"  bound {bound:.3f}  bound/3 {bound / 3:.3f}"
            print(f"  {m['name']:34} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" iqr/median {spread(xs):.4f}{note}")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--count", type=int, default=10, help="seeds 1..N when --seeds is absent")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    seeds = [int(s, 0) for s in a.seeds.split(",")] if a.seeds else range(1, a.count + 1)
    workloads = a.workloads.split(",")
    with open(a.out, "a") as out:
        for seed in seeds:
            for w in workloads:
                result, digest = run_once(w, seed, a.seconds, a.trace)
                line = {"workload": w, "seed": seed, "trace": a.trace,
                        "seconds": a.seconds, "sim_digest": digest, "result": result}
                out.write(json.dumps(line) + "\n")
                out.flush()
                print(f"collect: {w} seed {seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    summarize(load_runs(a.out), spec, a.trace)


if __name__ == "__main__":
    main()
