#!/usr/bin/env python3
"""Build the lab benchmark from source, then run it.

Usage, from the repository root:

    python3 labbench/run.py --workload catalog_cold --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); cargo's output goes to stderr so that the last line
of stdout is the benchmark's result. After a successful build this
process is replaced by the benchmark binary, so no child outlives it.
Exits nonzero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def command_output(args):
    """First line of a command's stdout, or "unknown" if it fails."""
    try:
        done = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=60, check=False
        )
    except OSError:
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("labbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["LABBENCH_RUSTC"] = command_output(["rustc", "--version"])
    # Only a git checkout of this repository has a commit to report;
    # the benchmark also runs from plain copies of the tree.
    if os.path.exists(os.path.join(ROOT, ".git")):
        env["LABBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    exe = os.path.join(target, "release", "labbench")
    args = [exe, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execve(exe, args, env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
