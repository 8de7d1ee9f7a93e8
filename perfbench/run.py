#!/usr/bin/env python3
"""System benchmark: one command for every workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the libraries, the cmpserve daemon
and the benchmark driver from source into .bench_build/ (CMake, Release),
prepares the seeded inputs of the workload (cached per seed under
.bench_build/perfbench-work/inputs/), runs it, and prints the driver's
report. The last line of standard output is the result object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A traced run also writes a Chrome
trace-event file under .bench_build/perfbench-work/traces/. Any build,
preparation or verification failure exits non-zero without a result.
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
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("train", "train-dist", "score", "serve")
KEEP_SEED_INPUTS = 8
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 120
RUN_SLACK_S = 100


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "perfbench_driver", "cmpserve"], BUILD_TIMEOUT_S)
    driver = os.path.join(BUILD, "perfbench_driver")
    serve = os.path.join(BUILD, "cmp", "src", "tools", "cmpserve")
    for path in (driver, serve):
        if not os.access(path, os.X_OK):
            fail("build produced no " + path)
    return driver, serve


def source_digest():
    """sha256 over the sources the benchmark builds, for the host stamp."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def prune_inputs(keep_seed):
    """Keeps the inputs of the most recently used seeds only."""
    inputs = os.path.join(WORK, "inputs")
    if not os.path.isdir(inputs):
        return
    dirs = [os.path.join(inputs, d) for d in os.listdir(inputs)]
    dirs = [d for d in dirs if os.path.isdir(d) and
            os.path.basename(d) != "s%d" % keep_seed]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for stale in dirs[KEEP_SEED_INPUTS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    driver, serve = build()
    os.makedirs(WORK, exist_ok=True)
    prune_inputs(args.seed)
    common = ["--work", WORK, "--workload", args.workload,
              "--seed", str(args.seed)]
    run_logged([driver, "--prepare"] + common, PREPARE_TIMEOUT_S)
    seed_dir = os.path.join(WORK, "inputs", "s%d" % args.seed)
    os.utime(seed_dir)

    cmd = [driver] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve-bin", serve, "--commit", commit(),
        "--source", source_digest()]
    # The driver and everything it spawns (dist workers, the cmpserve
    # daemon) share a fresh process group, so a timeout stops them all.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail("driver exited %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(stdout)
        fail("driver printed no result line")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("driver metrics do not match BENCHMARK.json: missing %s, "
             "extra %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
