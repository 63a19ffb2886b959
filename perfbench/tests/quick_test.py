#!/usr/bin/env python3
"""Self-check of the benchmark: a tiny quick mode of every workload.

    python3 perfbench/tests/quick_test.py

For each workload in BENCHMARK.json and each trace mode it runs
`run.py --quick` and asserts that the run passes its correctness gate and
that the result line carries exactly the metrics BENCHMARK.json names
(end_to_end for --trace 0, per_layer for --trace 1), each with its unit.
It also builds and runs span_selftest (self-time arithmetic). Exit code
0 means every check passed.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def check_run(workload, trace, spec):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--quick"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    problems = []
    if out.returncode != 0:
        problems.append("exit code %d: %s" % (out.returncode,
                                              out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correctness gate failed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("attempted %s failed %s" % (result.get("attempted"),
                                                    result.get("failed")))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(names) - set(metrics)),
            sorted(set(metrics) - set(names))))
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append("bad metric %s: %s" % (metric["name"], got))
        elif not trace and got["value"] <= 0:
            problems.append("end-to-end metric %s is not positive" %
                            metric["name"])
    if not trace:
        detail = json.loads(lines[-2])["detail"]
        for key in ("provenance", "workload", "samples", "arms"):
            if key not in detail:
                problems.append("detail lacks %s" % key)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print("%s --trace %d: %s" % (workload, trace, status))
            for problem in problems:
                print("  " + problem)
            failures += bool(problems)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    built = subprocess.run(["cmake", "--build", build_dir, "--target",
                            "span_selftest"], capture_output=True, text=True)
    selftest = os.path.join(build_dir, "span_selftest")
    ran = subprocess.run([selftest], capture_output=True, text=True) \
        if built.returncode == 0 else built
    print("span_selftest: %s" % ("ok" if ran.returncode == 0 else "FAIL"))
    if ran.returncode != 0:
        print(ran.stdout + ran.stderr)
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
