#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
to .bench_build in the repository root when that is unset. --trace 1
runs the `perfbench-traced` binary, which counts allocations; --trace 0
runs `perfbench`, which does not. The last line of standard output is
the benchmark's JSON result; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = "1" in [b for a, b in zip(argv, argv[1:]) if a == "--trace"]
    binary = os.path.join(target, "release",
                          "perfbench-traced" if traced else "perfbench")
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
