#!/usr/bin/env python3
"""Builds and runs the repository's host-clock benchmark from the root of a checkout.

    python3 hostbench/run.py --workload paper_tables --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --selftest    # helper tests and a smoke run of every workload

The first call configures and builds hostbench/ (which compiles ../src) in Release mode under
.bench_build/hostbench; later calls only re-check the build. The benchmark binary's last line
of output is one JSON object; it is printed only after its metric names and units have been
checked against BENCHMARK.json, so a result is either complete or absent (exit code 1).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175     # a call that finds the build already configured
FIRST_DEADLINE_S = 880   # the call that configures and builds from scratch


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group and waits for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        code, _ = run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S)
        if code != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    for target in targets:
        cmd += ["--target", target]
    code, _ = run(cmd, BUILD_TIMEOUT_S)
    return code == 0


def git_sha():
    """HEAD's commit read from .git without leaving the checkout; "unknown" without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the problem with the result line, or None when it meets the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()

    if args.selftest:
        if not build([]):
            return 1
        code, _ = run(["ctest", "--test-dir", BUILD, "--output-on-failure"], RUN_DEADLINE_S)
        return code
    if not args.workload:
        parser.error("--workload is required")
    configured = os.path.exists(os.path.join(BUILD, "Makefile"))
    deadline = RUN_DEADLINE_S if configured else FIRST_DEADLINE_S
    if not build(["hostbench"]):
        print("hostbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sha", git_sha(), "--out", OUT]
    budget = max(deadline - (time.monotonic() - start), 30)
    try:
        code, out = run(cmd, budget, capture=True)
    except subprocess.TimeoutExpired:
        print("hostbench: run exceeded %.0f s" % budget, file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    problem = "exit code %d" % code if code != 0 else check_result(lines[-1], args.trace)
    if problem is not None:
        sys.stderr.write(out)
        print("hostbench: no result: %s" % problem, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
