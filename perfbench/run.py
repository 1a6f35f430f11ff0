#!/usr/bin/env python3
"""Builds and runs the SCOUT benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload follow-io --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
repository's src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. The last line of standard output is the result object.
"""

import argparse
import fcntl
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target",
                      "scout_perfbench", "-j", jobs])
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "scout_perfbench")


def remove_stale_page_files(build_dir):
    """Removes page files left by runs that were killed before cleanup."""
    for path in glob.glob(os.path.join(build_dir, "perfbench-*.pages")):
        pid = os.path.basename(path).split("-")[1]
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            os.remove(path)
        except (ValueError, PermissionError):
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the repository sources (CMakeLists.txt, src/) are not next to "
            "perfbench/; nothing to build")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", build_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        remove_stale_page_files(build_dir)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
