#!/usr/bin/env python3
"""Builds and runs the websra front-door benchmark.

    python3 perfbench/run.py --workload replay|serve|live --seed N \
        --seconds S --trace 0|1 [--quick]

Run from anywhere inside a checkout. The benchmark and the websra
library are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; the first run builds, later runs
only re-check. Everything the run writes (build tree, temporary files,
the replay log, checkpoints, traces) stays under that directory.

The last line of stdout is the benchmark's JSON result. Exit code 0
means the correctness gate passed; any build or set-up failure exits
non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
# A build step that took longer than this compiled something.
COMPILED_S = 10
SETTLE_S = 30


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "build.log")
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "websra_perfbench", "-j", "4"])
    started = time.monotonic()
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return None
    if time.monotonic() - started > COMPILED_S:
        # Something was compiled. Flush the build's dirty pages, so their
        # write-back does not interrupt the measured run, and let the
        # machine settle: on a shared virtual machine the first run after
        # a full build saw several times the usual steal time and up to
        # 1.5x the usual CPU time per record.
        os.sync()
        time.sleep(SETTLE_S)
    return os.path.join(build_dir, "websra_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", default=10, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--quick", action="store_true",
                        help="tiny populations (self-test mode)")
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace, "--work-dir", os.path.join(build_root, "work")]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
