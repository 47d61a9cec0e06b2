#!/usr/bin/env python3
"""Build bench_pipeline from this checkout and run one workload.

Run from the repository root:

    python3 bench_pipeline/run.py --workload wide_flat --seed 1 --seconds 20 --trace 0

The first call configures and builds into .bench_build/ (about half a
minute on 4 cores); later calls only re-check the build.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
--trace 1 makes the per-layer run and writes its Chrome trace to
.bench_work/<workload>.trace.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_pipeline", "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wide_flat", "wide_hier", "fleet_batch", "daemon_edit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--duration", str(args.seconds), "--workdir", WORK_DIR]
    if args.trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(WORK_DIR, args.workload + ".trace.json")]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
