#!/usr/bin/env python3
"""Repository benchmark: builds bsub_perfbench from this checkout and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload haggle-bsub|city-bsub|fleet-udp \
        --seed N --seconds S --trace 0|1 [--smoke]

The first run configures and builds perfbench/CMakeLists.txt (the bsub
libraries from src/ plus bsub_perfbench) into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is bsub_perfbench's result object, and its exit code is returned: 0 when
every output check passed. Without the repository sources next to
perfbench/, it exits 2 before printing any result.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bsub_perfbench")
# bsub_perfbench stops measuring after 140 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "bench/fork_util.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources missing (%s); nothing to build" % needed)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bsub_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_id():
    """Git commit when the checkout is a repository, else a content hash of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            return "git:" + got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + ["--source-id", source_id()]
    sys.stdout.flush()
    # Own process group: on timeout the forked repeat processes go too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
