#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mlp-dense --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ at the repository
root. The Go build cache, temporary files and the traced run's spans stay
under .bench_build/ as well, so nothing is written outside the checkout.
The exit code is the benchmark's (non-zero when a correctness check fails),
or 1 without any result line when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
WORKLOADS_IN_ALL = 3  # --workload all runs each of the three in turn


def run_timeout(argv):
    """Seconds the benchmark may run: twice --seconds per workload, plus a
    minute for generating inputs. A run takes --seconds plus input
    generation, a warm-up run and at most one run of overshoot per
    measuring loop."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seconds", type=int, default=20)
    args, _ = p.parse_known_args(argv)
    workloads = WORKLOADS_IN_ALL if args.workload == "all" else 1
    return 60 + 2 * max(args.seconds, 1) * workloads


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOTMPDIR", "tmp"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                               env=go_env(), timeout=BUILD_TIMEOUT_S,
                               stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--spans-dir", os.path.join(BUILD, "spans")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT,
                              timeout=run_timeout(sys.argv[1:])).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
