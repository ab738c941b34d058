#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solo_decode --seed 1 \
        --seconds 15 --trace 0 [--weight-seed 7]

The script builds the hnbench program (perfbench/CMakeLists.txt) from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), runs
it, and prints hnbench's full report (host provenance, settings,
checks, tail percentiles and sample counts) followed by one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Every run also records its transcript digest under the
build directory, keyed by workload and seeds; a later run whose digest
differs is reported as incorrect.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solo_decode", "batch_decode", "chat_fleet")
ROOT = Path(__file__).resolve().parent.parent
# One hnbench run stays well inside 180 s; the build is timed
# separately.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build hnbench (incrementally); returns its path."""
    cmake_dir = build_dir / "perfbench"
    subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "hnbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return cmake_dir / "hnbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_digest(build_dir, report):
    """True when the digest matches every earlier run of these inputs."""
    path = build_dir / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = "{}:{}:{}".format(report["workload"], report["seed"],
                            report["weight_seed"])
    known = store.setdefault(key, report["digest"])
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return known == report["digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--weight-seed", type=int, default=7)
    args = parser.parse_args()
    if args.seed < 0 or args.weight_seed < 0 or args.seconds <= 0:
        parser.error("seeds must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: {}".format(err))
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--weight-seed", str(args.weight_seed), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: hnbench exceeded {} s".format(RUN_TIMEOUT_S))
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: hnbench failed with code {}".format(proc.returncode))
        return 1
    report = json.loads(lines[-1])

    digest_ok = check_digest(build_dir, report)
    report["checks"]["digest_matches_earlier_runs"] = digest_ok
    print(json.dumps(report))
    for name, metric in report["metrics"].items():
        print("{:<36} {:>16.6g} {}".format(name, metric["value"],
                                           metric["unit"]))
    result = {
        "correct": bool(report["correct"] and digest_ok),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
