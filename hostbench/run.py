#!/usr/bin/env python3
"""Builds and runs the DDP host-time benchmark.

Usage, from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark crate is built from source with cargo (offline, release
profile) into $CARGO_TARGET_DIR, or `.bench_build` at the repository root
when that is unset. The run's output is passed through; its last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import subprocess
import sys
import json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "ddp-hostbench"
# A run stops by itself after --seconds plus one pass; this bounds a hung one.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no simulator sources under {ROOT}/crates; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return os.path.join(target, "release", BIN)


def main():
    binary = build()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{BIN} exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the run printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
