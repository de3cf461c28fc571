"""Shared helpers of the benchmark's tools: the declaration in
BENCHMARK.json, the run files written by collect.py, and quartiles."""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed kept out of tuning; later claims are confirmed on it.
HELD_OUT_SEED = 0xB0D5


def load_spec(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """Reads a run file: one JSON object per line with the keys workload,
    seed, trace and result (the run's result line)."""
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def values(runs, workload, metric, trace=0):
    """The metric's values over a run file's runs of one workload, in file
    order."""
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """The distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")
