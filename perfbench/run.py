#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources, then run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload forkexec --seed 1 --seconds 20 --trace 0

--workload is one of forkexec, bufpool, anon_stream.  --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer split and also writes the
raw spans to .bench_build/perfbench/spans-<workload>.bin.  Any further
arguments (--ops N) are passed to the binary unchanged.

The build goes to .bench_build/perfbench (CMake, Release, with the same
interprocedural optimization as the repository's own Release build).  Build output goes
to stderr; the binary's report line and, last, its summary JSON go to stdout.
The exit status is the binary's: 0 only when every output check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build step failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no src/ tree at {ROOT}; run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace == 1:
        cmd += ["--trace-out", os.path.join(BUILD, f"spans-{args.workload}.bin")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
