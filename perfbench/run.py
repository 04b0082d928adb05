#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench_driver and the
dlsched library from the checkout's sources (Release, into
.bench_build/perfbench; the first run builds, later runs reuse it), then
runs perfbench_driver on the workload and passes its output and exit code
through.  The last line of standard output is the result object; see
perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_cold", "serve_warm", "sweep_solvers", "sweep_light")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(argv):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(argv))


def build():
    cache = os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", os.path.relpath(BENCH_DIR, ROOT),
                   "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
               "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD_DIR, "perfbench_driver")


def source_digest():
    """SHA-256 over the library's build inputs: identifies the code
    measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, name) for name in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no dlsched sources next to " + os.path.relpath(BENCH_DIR))
    driver = build()

    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    argv = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir,
            "--golden", os.path.relpath(os.path.join(BENCH_DIR, "golden.txt"),
                                        ROOT),
            "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    driver_run = subprocess.Popen(argv, cwd=ROOT)
    try:
        code = driver_run.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        driver_run.kill()
        driver_run.wait()
        code = 1
        print("perfbench: perfbench_driver ran past %d s and was stopped"
              % DRIVER_TIMEOUT_S, file=sys.stderr)
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
