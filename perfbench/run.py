#!/usr/bin/env python3
"""Build and run the socbench benchmark of both simulators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the
simulators from src/) into .bench_build/ on first use, then runs
socbench once for the measurement.  With --trace 0 it first starts
socbench several times in --setup-only mode and reports setup_s as the
median of those starts and the measuring one.  With --trace 1 the
spans go to .bench_build/spans/WORKLOAD-seedN.json.

Prints socbench's environment stamp, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  S runs
from 1 to 60; every socbench start after the build shares one
DEADLINE_S budget, which the largest S leaves ample room in.  Usage
errors exit 2; a missing source tree, a failed build or a socbench
run past the deadline exits 1 without a result.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("fleet_12h", "fleet_6w", "storm_chaos", "service_cluster")
SETUP_STARTS = 9
MAX_SECONDS = 60
DEADLINE_S = 170
USAGE = ("usage: run.py --workload {%s} --seed N --seconds S "
         "[--trace 0|1]" % "|".join(WORKLOADS))


def usage_error(message):
    print("run.py: %s\n%s" % (message, USAGE), file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    """Strict flag parsing: every flag known, every number decimal."""
    values = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            usage_error("unknown argument %r" % flag)
        if flag in values:
            usage_error("repeated flag %s" % flag)
        if i + 1 >= len(argv):
            usage_error("%s needs a value" % flag)
        values[flag] = argv[i + 1]
        i += 2
    for flag in ("--workload", "--seed", "--seconds"):
        if flag not in values:
            usage_error("missing %s" % flag)
    if values["--workload"] not in WORKLOADS:
        usage_error("unknown workload %r" % values["--workload"])
    numbers = {}
    for flag, lo, hi in (("--seed", 0, 2**63 - 1),
                         ("--seconds", 1, MAX_SECONDS),
                         ("--trace", 0, 1)):
        text = values.get(flag, "0")
        if not re.fullmatch(r"[0-9]{1,19}", text) or \
                not lo <= int(text) <= hi:
            usage_error("malformed %s %r" % (flag, text))
        numbers[flag] = int(text)
    return (values["--workload"], numbers["--seed"], numbers["--seconds"],
            numbers["--trace"])


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build(out_dir):
    """Configure once, then (re)build socbench; build output to
    stderr so stdout carries only the result."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("run.py: no simulator sources at %s/src" % REPO,
              file=sys.stderr)
        sys.exit(1)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "socbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=REPO).returncode != 0:
            print("run.py: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            sys.exit(1)


def git_sha():
    """Commit of the checkout, when it is a git work tree."""
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if re.fullmatch(r"[0-9a-f]{7,64}", sha) else "unknown"


def run_socbench(cmd, deadline):
    """Run socbench with its start time; returns its stdout lines, or
    exits 1 (socbench is killed and reaped when the monotonic clock
    passes deadline)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)],
                            stdout=subprocess.PIPE, text=True, cwd=REPO)
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: socbench timed out", file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        print("run.py: socbench exited %d" % proc.returncode,
              file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        print("run.py: socbench printed nothing", file=sys.stderr)
        sys.exit(1)
    return lines


def main():
    workload, seed, seconds, trace = parse_args(sys.argv[1:])
    out_dir = build_dir()
    build(out_dir)
    deadline = time.monotonic() + DEADLINE_S
    exe = os.path.join(out_dir, "socbench")
    base = [exe, "--workload", workload, "--seed", str(seed)]

    setup = []
    if trace == 0:
        for _ in range(SETUP_STARTS):
            line = run_socbench(base + ["--setup-only"], deadline)[-1]
            setup.append(json.loads(line)["setup_s"])

    cmd = base + ["--seconds", str(seconds), "--trace", str(trace),
                  "--git-sha", git_sha()]
    if trace == 1:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, seed))]
    lines = run_socbench(cmd, deadline)
    result = json.loads(lines[-1])
    if trace == 0:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
