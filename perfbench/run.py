#!/usr/bin/env python3
"""Build and run the objrpc end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload kv_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --inc-repro stale_serve --seed 1

The benchmark is compiled from this checkout's sources into
.bench_build/ (or $CARGO_TARGET_DIR) on first use.  Build output goes to
stderr; the last stdout line of a benchmark run is its result JSON.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_mix", "kv_mix_4shard", "ref_pull")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build objbench; returns its path or None."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "objbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    exe = os.path.join(out, "objbench")
    return exe if os.path.isfile(exe) else None


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd):
    """Run objbench, passing its stdout through; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--inc-repro", choices=("stale_serve", "invalidate_order"))
    a = ap.parse_args()
    if not (a.selftest or a.inc_repro or a.workload):
        ap.error("one of --workload, --selftest, --inc-repro is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        return 1
    if a.selftest:
        return run([exe, "--selftest", os.path.join(HERE, "fixtures", "split.txt")])
    if a.inc_repro:
        return run([exe, "--inc-repro", a.inc_repro, "--seed", str(a.seed)])
    out = os.path.join(build_dir(), "out")
    os.makedirs(out, exist_ok=True)
    sys.stdout.flush()
    return run([exe, "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--out", out, "--git-rev", git_rev()])


if __name__ == "__main__":
    sys.exit(main())
