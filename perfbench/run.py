#!/usr/bin/env python3
"""Builds and runs the simulator benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload storm-replay|train-plan \
        --seed N --seconds S --trace 0|1

The first run compiles the simulator's sources and the benchmark into .bench_build/perfbench
(a Release build, telemetry compiled in); later runs reuse it. Before measuring, the oracles'
own tests must pass. The last line of stdout is the run's JSON result; the line before it is
the host and build fingerprint. Exits non-zero, printing no result, when the build, the
oracle tests or the run fail.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("storm-replay", "train-plan")
# One run may not exceed 180 s; the build gets the first run's longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def nproc():
    return len(os.sched_getaffinity(0))


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then lets the build tool bring the binaries up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(nproc())]
    return subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_revision():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        out = sha.stdout.split()
        # Only the checkout's own repository counts, not one that happens to enclose it.
        if sha.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            return {"git_sha": out[1]}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": None, "source_sha256": digest.hexdigest()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    fp = {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        # The benchmark's build always compiles telemetry in (the source default).
        "stalloc_telemetry": "on",
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
    }
    fp.update(source_revision())
    return fp


def check_names(result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json declares for this mode."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatches %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in want if n in got and want[n] != got[n])))
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not build():
            log("build failed")
            return 1
        if subprocess.run([os.path.join(BUILD, "oracle_test")],
                          timeout=RUN_TIMEOUT_S).returncode != 0:
            log("oracle tests failed")
            return 1
        run = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", BUILD],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("perfbench exited with %d" % run.returncode)
        return 1
    result = json.loads(lines[-1])
    if not check_names(result, args.trace == 1):
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"fingerprint": fingerprint()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
