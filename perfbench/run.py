#!/usr/bin/env python3
"""Builds the comimo benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <ber_curve|net_pass|service_mix>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build tree lives in perfbench/.build of this checkout and is wiped
when it was configured for another checkout.  The build is finished
before the benchmark process starts, so no metric counts it.  The last
line of stdout is the benchmark's result JSON; build output goes to
stderr.  Exits non-zero, without a result, when the library sources are
missing or the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, ".out")
STAMP = os.path.join(BUILD, "checkout-root")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    # stdout of the build goes to stderr: stdout carries only the result.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        if proc.wait(timeout=timeout) != 0:
            fail("command failed: " + " ".join(cmd))
    except BaseException:
        stop(proc)
        raise


def stop(proc):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at " + os.path.join(ROOT, "src"))
    # Never reuse a tree configured for another checkout.
    if os.path.isdir(BUILD):
        try:
            with open(STAMP) as f:
                same = f.read() == ROOT
        except OSError:
            same = False
        if not same:
            shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    with open(STAMP, "w") as f:
        f.write(ROOT)
    run_checked(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"], 120)
    # A clean build takes under a minute on 4 cores; with the run's own
    # limit the first run stays within 900 s.
    run_checked(["cmake", "--build", BUILD, "-j", "4", "--target", target],
                 600)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        os.makedirs(OUT, exist_ok=True)
        sys.exit(subprocess.call([binary], cwd=OUT))
    if args.workload not in ("ber_curve", "net_pass", "service_mix"):
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build("perfbench")
    os.makedirs(OUT, exist_ok=True)
    # The benchmark's cwd is its output directory: the daemon's AF_UNIX
    # socket then has a short relative path, whatever the checkout's.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=OUT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        stop(proc)
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
