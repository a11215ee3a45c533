#!/usr/bin/env python3
"""Builds the daemon and the load generator from source, then runs one
benchmark invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files go to `<target>/perfbench-work`.
The last line of standard output is the result (see README.md).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(target, args):
    """Runs one offline release build; its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: run from the repository root (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if build(target, ["--bin", "tiresias"]) != 0:
        print("perfbench: building the daemon failed", file=sys.stderr)
        return 3
    if build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")]) != 0:
        print("perfbench: building the generator failed", file=sys.stderr)
        return 3
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--bin", os.path.join(release, "tiresias"),
        "--work", os.path.join(target, "perfbench-work"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
