#!/usr/bin/env python3
"""Build perfbench from the repository's sources and run one workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ with CMake into .bench_build/perfbench
(incremental after the first run), runs the workload with a scratch
directory under the build directory for its WAL and snapshot files, and
passes its standard output through: a metrics table, then one JSON line.
Build output goes to standard error. Exits non-zero when the build fails,
the run fails or times out, or any answer was wrong.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("static_read", "mixed_durable", "point_existence")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build", "perfbench")
    # Configure once; later builds re-run CMake themselves when needed.
    cmds = [["cmake", "--build", build, "-j", "4"]]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    work = os.path.join(build, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # A termination request stops the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(
        [os.path.join(build, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--work-dir", work],
        cwd=root)
    code = 1
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
