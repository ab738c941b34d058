#!/usr/bin/env bash
#
# Tier-1 verification: the default build and its full test suite, the
# same unfiltered suite under each sanitizer and without SIMD, the
# bench/JSON gates, and a warning-free Release build.
#
# Why each whole-suite leg exists:
#  - ThreadSanitizer: the thread pool, the row workers that read one
#    leased scratch's columns and the router's shard threads share
#    state across threads; a data race fails here even when it happens
#    not to corrupt a value.
#  - AddressSanitizer + UndefinedBehaviorSanitizer: the KV block pool
#    hands out raw payloads indexed by computed offsets and a repaired
#    shard's SlotBatch::rebind keeps caches alive across engines (ASan);
#    the retry backoff shifts and the fault injector's generated bit
#    positions are where a shift past the type width hides (UBSan).
#  - -DHNLPU_SIMD=OFF: HnKernel::Simd runs only the baseline-ISA
#    build of its dot loop (no AVX2/AVX-512 copies are compiled), which
#    must pass the same bit-exactness tests.
# The Release build with -Werror keeps the optimiser-only GCC
# diagnostics (-Wstringop-overflow, -Wrestrict, -Wuninitialized from
# inlined intrinsics) at zero.
#
# Usage: scripts/tier1.sh [build_dir] [tsan_build_dir] [asan_build_dir]
#        [nosimd_build_dir] [werror_build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
NOSIMD_DIR="${4:-build-nosimd}"
WERROR_DIR="${5:-build-werror}"
JOBS="$(nproc)"

# suite <name> <build_dir> [cmake options...]: configure, build every
# target and run the whole test suite.
suite() {
    local name="$1" dir="$2"
    shift 2
    echo "== tier-1: $name: build + ctest =="
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$JOBS"
    (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

suite default "$BUILD_DIR"
suite ThreadSanitizer "$TSAN_DIR" -DHNLPU_SANITIZE=thread
suite "AddressSanitizer + UBSan" "$ASAN_DIR" -DHNLPU_SANITIZE=address
suite "SIMD disabled" "$NOSIMD_DIR" -DHNLPU_SIMD=OFF

echo "== tier-1: traced serving run emits valid JSON =="
# A 2-slot serving benchmark under --trace must produce BENCH JSON and a
# Chrome trace that a strict parser accepts (every emitter goes through
# obs::JsonWriter; a hand-concatenation regression fails here).
"$BUILD_DIR"/bench/bench_serving 6 4 4 \
    "$BUILD_DIR"/BENCH_serving.json \
    --trace "$BUILD_DIR"/TRACE_serving.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_serving.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/TRACE_serving.json > /dev/null

echo "== tier-1: router chaos bench survives a killed shard =="
# 4 shards, heavy-tail arrivals, a seeded mid-run fault schedule that
# drains one shard outright; the bench exits non-zero unless every
# completed request is bit-identical to a clean solo generate and
# every shed carries a typed policy reason.  The JSON report must
# satisfy a strict parser.
"$BUILD_DIR"/bench/bench_router_chaos 56 \
    "$BUILD_DIR"/BENCH_router.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_router.json > /dev/null

echo "== tier-1: datacenter bench replays deterministically =="
# Smoke-sized fleet on the unified event clock with live fault
# injection; the bench exits non-zero unless the same seed replays to
# a byte-identical report and every request is completed or shed.  The
# report must satisfy a strict parser.
"$BUILD_DIR"/bench/bench_datacenter --smoke \
    "$BUILD_DIR"/BENCH_datacenter.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_datacenter.json > /dev/null

echo "== tier-1: prefix-cache bench hits its TTFT target =="
# Shared-system-prompt mixes with the cache off and on; the bench
# exits non-zero unless decoded tokens are bit-identical at every mix
# and the 90% mix cuts reference-path p50 TTFT by >= 1.5x.
"$BUILD_DIR"/bench/bench_prefix 24 \
    "$BUILD_DIR"/BENCH_prefix.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_prefix.json > /dev/null

echo "== tier-1: every shipped experiment config smoke-runs =="
# bench_expt --config parses each examples/expt/ file with the
# schema-checked reader, expands the scenario matrix and serves every
# scenario on a smoke-capped trace; the report must satisfy a strict
# parser.  (Registry/file drift fails test_expt, not this leg.)
for config in examples/expt/*.json; do
    "$BUILD_DIR"/bench/bench_expt --config "$config" --smoke \
        --json-out "$BUILD_DIR"/BENCH_expt_smoke.json > /dev/null
    python3 -m json.tool "$BUILD_DIR"/BENCH_expt_smoke.json > /dev/null
done

echo "== tier-1: the repository benchmark builds and decodes correctly =="
# perfbench/run.py builds hnbench from src/ and serves each workload for
# a short run.  A src/ change that breaks hnbench's build, or whose
# decode disagrees with the benchmark's 1-thread Packed re-decode or
# with the transcript digest recorded in build-perfbench, fails here.
for workload in solo_decode batch_decode chat_fleet; do
    result="$(CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    python3 -c '
import json, sys
r = json.loads(sys.argv[2])
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("perfbench " + sys.argv[1] + ": " + sys.argv[2])
' "$workload" "$result"
done

echo "== tier-1: warning-free Release build =="
cmake -B "$WERROR_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$WERROR_DIR" -j "$JOBS"

echo "tier-1 OK"
