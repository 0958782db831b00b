#!/usr/bin/env python3
"""Build and run the procon ledger benchmark.

Usage, from the root of a checkout:

    python3 ledger/run.py --workload table1_sweep --seed 1 --seconds 20 --trace 0

Builds ledger/ (with the library sources under src/) into the directory named
by $CARGO_TARGET_DIR, or .bench_build by default, then runs procon_ledger with
the given arguments. The binary prints a record line and, as the last line,
the result object; records and trace files go to <build dir>/records. Exits
non-zero when the build fails or any op is incorrect.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_sweep", "estimate_dense", "admission_churn", "service_mixed")


def log(msg):
    print(f"ledger: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds procon_ledger; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "procon_ledger", "-j", jobs],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "procon_ledger")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="op-stream seed")
    ap.add_argument("--seconds", type=int, default=25, help="measured run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run with per-layer metrics")
    ap.add_argument("--app-seed", type=int, default=2007,
                    help="application generator seed (held-out: 4099)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT, ".bench_build")))
    binary = build(build_dir)
    if binary is None:
        return 1
    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--app-seed", str(args.app_seed), "--out", records, "--git-sha", git_sha()]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
