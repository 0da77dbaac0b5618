#!/usr/bin/env python3
"""Builds the benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root and is incremental, so only the first run of a checkout
compiles. The benchmark's own stdout is passed through; its last line is the
result object. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "fleet_parking_lot", "zoo_train")
# A run must end within 180 s; this leaves room for process start and the
# incremental build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"repository sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--parallel", str(nproc()),
                  "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / target


def run(cmd):
    env = dict(os.environ, LIBRA_THREADS=str(nproc()))
    # Own process group, so a timeout or a signal to this script also stops
    # the benchmark's own child (the single-thread training run of zoo_train).
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build("perfbench_selftest" if args.self_test else "perfbench")
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        return fail(str(e))
    if args.self_test:
        return run([str(binary)])
    return run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
