#!/usr/bin/env python3
"""The repo's end-to-end benchmark: build, record the host, run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --pin    # recompute pinned_digests.json

Builds mtvd and the mtvbench binary from source in Release (into
.bench_build/perfbench), refuses any other build type, prints a
`# host {...}` line (nproc, compiler, build type, commit or source
digest, load average at start), then runs mtvbench, whose last line
of standard output is the result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["figures-cold", "stream-warm", "interactive-under-sweep",
             "fleet-stream-warm"]
# A run must end within 180 s; stop well before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build mtvd + mtvbench; returns the CMake cache."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("the mtv sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    for step in (["cmake", "-S", "perfbench", "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "mtvbench",
                  "-j", "4"]):
        # Build output goes to stderr: stdout carries the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":")[0]] = value
    return cache


def source_digest():
    """SHA-256 over the files the benchmark builds from, so a result
    names its code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in filenames]
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    """HEAD of the checkout's own git repository (git would otherwise
    report an enclosing repository), or None."""
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    load_at_start = os.getloadavg()
    cache = build()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        fail("refusing to measure a '%s' build: the benchmark only "
             "measures Release builds" % build_type)
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "build_type": build_type,
        "commit": commit(),
        "source_digest": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }
    print("# host " + json.dumps(host, sort_keys=True), flush=True)

    binary = os.path.join(BUILD, "mtvbench")
    command = [binary, "--pin"] if args.pin else [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Own process group: on a timeout mtvbench and every daemon it
    # started go down together.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("mtvbench did not finish within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("mtvbench exited with status %d" % code)


if __name__ == "__main__":
    main()
