#!/usr/bin/env python3
"""Build and run the CASA layered performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <flow_sim|solve_hard|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package in this directory and the `casa-server`
binary from source (offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the benchmark. Build output goes to standard
error; the last line of standard output is the result JSON. Exits
non-zero, without a result, when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    ok = build(target, os.path.join(HERE, "Cargo.toml")) and build(
        target, os.path.join(REPO, "crates", "bench", "Cargo.toml"),
        "--bin", "casa-server")
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "casa-perfbench"), *sys.argv[1:],
           "--state-dir", os.path.join(target, "perfbench-state"),
           "--server-bin", os.path.join(release, "casa-server")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
