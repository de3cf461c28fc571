#!/usr/bin/env python3
"""Self-tests of the benchmark; run from the repository root:

    python3 hostbench/selftest.py [--seed N]

Checks that
  * BENCHMARK.json is well formed: names of letters, digits, '_', '.' and
    '-', every metric with a unit and a direction, bounds within 0.25;
  * every metric a run prints is declared, with the unit it prints;
  * every declared workload runs correctly and prints every declared
    metric of its mode (end-to-end with --trace 0, per-layer with --trace 1);
  * the exact-count per-layer metrics and sim_digest repeat bit-for-bit
    across two runs with the same seed;
  * compare.py's verdict rule gives the expected verdicts;
  * a directory holding only BENCHMARK.json and the benchmark fails fast
    without printing a result.
Each run uses a one-second budget, so it makes a single pass; the whole
test takes a few minutes.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

from benchstats import HERE, ROOT, load_spec
from compare import verdict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics that are exact simulated counts, not host times.
EXACT = [
    "core.msgs_per_req", "core.persists_per_req", "core.txn_restarts_per_commit",
    "core.txn_conflict_rate", "store.lsm_seals_per_kwrite",
    "store.compaction_bytes_per_write", "export.mb", "failed_cell_ratio",
]
# Informational lines a run prints beside its metrics.
INFO = re.compile(r"^(workload = |pass \d+: |passes = |pairs = |sim_digest = |"
                  r"failed_cell_ratio = \S+ \(\d+ of \d+ cells\)$)")
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")

failures = []


def expect(ok, msg):
    if not ok:
        failures.append(msg)
        print(f"FAIL {msg}")


def check_spec(spec):
    expect(sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"], "BENCHMARK.json keys")
    names = []
    for w in spec["workloads"]:
        expect(sorted(w) == ["name", "why"], f"workload keys {w}")
        expect("\n" not in w["why"] and len(w["why"]) <= 200, f"why of {w['name']}")
        names.append(w["name"])
    for section, keys in (("end_to_end", ["better", "bound", "name", "unit"]),
                          ("per_layer", ["better", "name", "unit"])):
        for m in spec[section]:
            expect(sorted(m) == keys, f"{section} keys {m}")
            expect(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
            expect(m["better"] in ("lower", "higher"), f"direction of {m['name']}")
            if "bound" in m:
                expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
            names.append(m["name"])
    for n in names:
        expect(NAME.match(n) is not None, f"name {n!r}")
    expect(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s is declared in s, lower is better")
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "hostbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def check_run(spec, workload, trace, lines):
    section = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    declared = {m["name"]: m["unit"] for m in section}
    everything = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload} result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace} ran correctly")
    expect(sorted(result["metrics"]) == sorted(declared),
           f"{workload} trace {trace} prints exactly the declared metrics")
    for name, v in result["metrics"].items():
        expect(declared.get(name) == v["unit"], f"{name} declared with unit {v['unit']}")
    for line in lines[:-1]:
        if INFO.match(line):
            continue
        m = METRIC_LINE.match(line)
        expect(m is not None and everything.get(m.group(1)) == m.group(3),
               f"printed line is a declared metric: {line!r}")
    digest = next((l.split("=", 1)[1].strip() for l in lines if l.startswith("sim_digest =")),
                  None)
    expect(digest is not None, f"{workload} prints sim_digest")
    return result["metrics"], digest


def check_verdicts():
    p = [100.0 + i for i in range(10)]
    expect(verdict(p, [x - 20 for x in p], list(zip(p, [x - 20 for x in p])), "lower", 0.1)[0]
           == "improved", "verdict improved")
    expect(verdict(p, [x * 1.5 for x in p], list(zip(p, [x * 1.5 for x in p])), "lower", 0.1)[0]
           == "worse", "verdict worse")
    expect(verdict(p, p[::-1], list(zip(p, p[::-1])), "lower", 0.1)[0] == "unchanged",
           "verdict unchanged")
    wide = [50.0, 150.0] * 5
    expect(verdict(wide, wide[::-1], list(zip(wide, wide[::-1])), "lower", 0.1)[0]
           == "unresolved", "verdict unresolved")
    few = p[:5]
    expect(verdict(few, [x - 20 for x in few], list(zip(few, [x - 20 for x in few])),
                   "lower", 0.1)[0] == "unresolved", "too few pairs is unresolved")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("long_read", 1, 0, cwd=bare)
    expect(code != 0, "a bare directory exits non-zero")
    expect(not any(l.startswith("{") for l in lines), "a bare directory prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xDD9)
    a = ap.parse_args()
    spec = load_spec()
    check_spec(spec)
    check_verdicts()
    check_bare_directory()
    for w in spec["workloads"]:
        name = w["name"]
        code, lines = run(name, a.seed, 0)
        expect(code == 0, f"{name} trace 0 exits 0")
        _, d0 = check_run(spec, name, 0, lines)
        traced = []
        for _ in range(2):
            code, lines = run(name, a.seed, 1)
            expect(code == 0, f"{name} trace 1 exits 0")
            traced.append(check_run(spec, name, 1, lines))
        (m1, d1), (m2, d2) = traced
        expect(d0 == d1 == d2, f"{name} sim_digest repeats: {d0} {d1} {d2}")
        for metric in EXACT:
            expect(m1[metric]["value"] == m2[metric]["value"],
                   f"{name} {metric} repeats: {m1[metric]['value']} {m2[metric]['value']}")
        print(f"ok {name}: digest {d0}")
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
