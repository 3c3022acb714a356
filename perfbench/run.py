#!/usr/bin/env python3
"""Builds and runs the PRIVATE-IYE end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wide-integrate, wire-federation, emergency-mix (see
BENCHMARK.json for why each exists). The benchmark program is built
from ../src as an optimized CMake package under .bench_build/, then run in
one process per workload. It prints an environment stamp and diagnostics as
`#` lines, and as the last line of stdout one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

Self-tests at reduced size: python3 perfbench/test_perfbench.py
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "piye_perfbench")
# A run must end within 180 s; the build of a first run is not counted.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "piye_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
            if done.returncode != 0:
                log("build step failed: " + " ".join(step))
                return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "none"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "none"


def main(argv):
    if not build():
        return 2
    command = [BINARY] + argv + ["--git-sha", git_sha()]
    # Its own process group, so a timeout stops every thread and child.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, 9)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, 9)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
