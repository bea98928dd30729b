#!/usr/bin/env python3
"""Build and run the served-path benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (the program's library
from src/ plus the load generator) into .bench_build/perfbench, then runs
one workload; the last stdout line is the result JSON.  The second runs
every workload of BENCHMARK.json at a tiny length, with two seeds and
both trace settings, and checks that every named metric appears with its
unit and that no request failed.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sring_perfbench")


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_benchmark(args):
    """Run the benchmark binary with the given arguments; returns its exit code."""
    cmd = [BINARY] + args
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1]
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    return subprocess.run(cmd).returncode


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            for seed in (1, 2):
                cmd = [BINARY, "--workload", w["name"], "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                where = "%s trace=%d seed=%d" % (w["name"], trace, seed)
                before = len(problems)
                try:
                    result = last_json(done.stdout)
                except ValueError:
                    result = None
                if done.returncode != 0 or result is None:
                    problems.append("%s: exit %d, no result" % (where, done.returncode))
                    print("selftest %s: FAIL" % where)
                    continue
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("%s: result keys %s" % (where, sorted(result)))
                if not result.get("correct") or result.get("failed") != 0 \
                        or result.get("attempted", 0) < 1:
                    problems.append("%s: correct=%s attempted=%s failed=%s" % (
                        where, result.get("correct"), result.get("attempted"),
                        result.get("failed")))
                metrics = result.get("metrics", {})
                if sorted(metrics) != sorted(wanted[trace]):
                    problems.append("%s: metric names differ: missing %s, extra %s" % (
                        where, sorted(set(wanted[trace]) - set(metrics)),
                        sorted(set(metrics) - set(wanted[trace]))))
                for name, unit in wanted[trace].items():
                    got = metrics.get(name, {})
                    if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                        problems.append("%s: %s is %s, want a number in %s" % (
                            where, name, got, unit))
                print("selftest %s: %s" % (where, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("selftest FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "all workloads ok"))
    return 1 if problems else 0


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return selftest()
    return run_benchmark(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
