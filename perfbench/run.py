#!/usr/bin/env python3
"""Benchmark entry point: build, self-test, run one workload, print results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the fedcons libraries, the
fedcons_serve daemon and the fcbench driver from source with CMake (Release
only) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the arithmetic self-test, then one fcbench run. The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; the lines
before it carry the run's info (property shares, request accounting) and a
stamp (nproc, build type, CPU model, seed, source revision). Exits non-zero,
printing no result, when the build, the self-test or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("admit-small", "admit-large", "admit-dag", "sweep")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "fcbench", "fedcons_serve_daemon", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def build_type(build_dir):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.relpath(HERE)):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    kind = build_type(build_dir)
    if kind != "Release":
        log(f"refusing a {kind or 'default'} build; results come from Release only")
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("arithmetic self-test failed")
        return 1

    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build_dir, "fcbench"), "run",
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--daemon={os.path.join(build_dir, 'fedcons_serve')}",
           # Relative: unix socket paths are limited to 107 bytes.
           f"--work-dir={os.path.relpath(work)}"]
    # Own process group, so a timeout also takes down the daemon it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        log(f"fcbench exited with {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"perfbench_stamp": {
        "nproc": os.cpu_count(), "build_type": kind, "cpu": cpu_model(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "revision": revision()}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
