#!/usr/bin/env bash
#
# Tier-1 verification: full build + test suite, then a ThreadSanitizer
# rebuild of the parallel execution layer so the lazy hardwired-array
# call_once fix and the ThreadPool stay honest (a data race fails this
# script even when it happens not to corrupt a value).
#
# The fault-injection, prefix-cache, router, experiment-driver and
# parallel tests additionally run under AddressSanitizer: fault plans
# index weight matrices and dead-row masks by generated coordinates,
# exactly the kind of arithmetic where an off-by-one reads out of
# bounds without failing a functional assertion, the router rebinds
# in-flight KV caches across engine rebuilds, and the MoE expert stage
# indexes flat per-group staging buffers by raw row and column offsets.
#
# A fourth leg rebuilds the kernel, serving and parallel tests with
# -DHNLPU_SIMD=OFF so the Portable fallback of the Simd kernel (the
# Packed batch kernel, the only body on non-x86 hosts) keeps passing
# the same bit-exactness sweeps as the vector bodies.
#
# A fifth leg rebuilds the router and fault tests under
# UndefinedBehaviorSanitizer: the retry backoff computes shifted
# delays, the fault injector flips generated bit positions, and the
# link model multiplies tick arithmetic -- all places where a shift
# past the type width or a signed overflow stays silent in a normal
# build.
#
# A last leg configures a Release build with -Werror and builds every
# target, so the optimiser-only GCC diagnostics (-Wstringop-overflow,
# -Wrestrict, -Wuninitialized from inlined intrinsics) stay at zero.
#
# Usage: scripts/tier1.sh [build_dir] [tsan_build_dir] [asan_build_dir]
#        [nosimd_build_dir] [ubsan_build_dir] [werror_build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
NOSIMD_DIR="${4:-build-nosimd}"
UBSAN_DIR="${5:-build-ubsan}"
WERROR_DIR="${6:-build-werror}"

echo "== tier-1: build + ctest =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

echo "== tier-1: test_parallel under ThreadSanitizer =="
cmake -B "$TSAN_DIR" -S . -DHNLPU_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target test_parallel
(cd "$TSAN_DIR" && ctest --output-on-failure -R '^test_parallel$')

echo "== tier-1: kernel tests under ThreadSanitizer =="
# The Packed/Simd kernels build one PackedPlanes per GEMV and share it
# read-only across all row workers, and the lock-free scratch arena
# hands scratches between concurrent callers through atomic slot
# exchanges; TSan proves the plane sharing is really read-only and the
# arena's acquire/release publication (incl. the dedicated concurrent
# stress test) is race-free rather than merely luckily un-corrupted.
cmake --build "$TSAN_DIR" -j --target test_hn_kernel
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^kernel$')

echo "== tier-1: serving tests under ThreadSanitizer =="
# The batched GEMM shares per-step read-only state (per-column
# PackedPlanes, frozen KV caches) across row and (sequence, head)
# workers; TSan proves the continuous-batching hot path is race-free
# across batch sizes, kernels and thread counts.
cmake --build "$TSAN_DIR" -j --target test_serving
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^serving$')

echo "== tier-1: router tests under ThreadSanitizer =="
# ServingRouter::run steps every busy shard on its own thread while
# the router thread owns scheduling state between steps; TSan proves
# the shard workers really touch disjoint slots/outcomes and that
# completion/metrics handling stays on the router thread.
cmake --build "$TSAN_DIR" -j --target test_router
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^router$')

echo "== tier-1: prefix-cache tests under ThreadSanitizer =="
# PrefixCache::lookup pins block chains while the pool's allocation
# path runs the LRU evictor and KvCache workers append into
# exclusively held blocks without a lock; TSan proves the refcount
# protocol (refcount 1 => single writer, shared => read-only) and the
# PrefixCache->pool lock order hold under concurrent lookup, adopt,
# copy-on-write append, insert and eviction.
cmake --build "$TSAN_DIR" -j --target test_prefix
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^prefix$')

echo "== tier-1: event-core + datacenter tests under ThreadSanitizer =="
# The unified event core is single-threaded by contract, but its tests
# drive the same EventQueue/Port/Connection objects the multithreaded
# serving layers schedule around; TSan proves the >= 1M-event stress
# and the datacenter fleet run allocate/free event callbacks without a
# hidden race (std::function moves through the priority queue).
cmake --build "$TSAN_DIR" -j --target test_sim --target test_dc
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^sim$')

echo "== tier-1: observability tests under ThreadSanitizer =="
# Metric counters, the tracer mutex and the pool chunk observer are hit
# from every worker thread; TSan proves the registry/tracer locking is
# real and the observer installation has no unsynchronised window.
cmake --build "$TSAN_DIR" -j --target test_obs
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^obs$')

echo "== tier-1: experiment-driver tests under ThreadSanitizer =="
# The driver sweeps multi-threaded serving engines and the sharded
# router inside one process, with per-tenant LoRA adapters resolved at
# admission and shared read-only across batch workers; TSan proves the
# multi-tenant hot-swap adds no race to the serving hot paths.
cmake --build "$TSAN_DIR" -j --target test_expt
(cd "$TSAN_DIR" && ctest --output-on-failure -L '^expt$')

echo "== tier-1: traced serving run emits valid JSON =="
# A 2-slot serving benchmark under --trace must produce BENCH JSON and a
# Chrome trace that a strict parser accepts (every emitter goes through
# obs::JsonWriter; a hand-concatenation regression fails here).
"$BUILD_DIR"/bench/bench_serving 6 4 4 \
    "$BUILD_DIR"/BENCH_serving.json \
    --trace "$BUILD_DIR"/TRACE_serving.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_serving.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/TRACE_serving.json > /dev/null

echo "== tier-1: kernel + serving + parallel tests with SIMD disabled =="
# -DHNLPU_SIMD=OFF drops the AVX bodies; HnKernel::Simd then runs
# HardwiredNeuron::computePackedBatch at every batch size, solo decode
# included, which must pass the same scalar-vs-packed-vs-simd
# bit-exactness sweep, the same batched GEMM and engine-batch sweep and
# the same parallel == serial engine runs as the vector bodies.
cmake -B "$NOSIMD_DIR" -S . -DHNLPU_SIMD=OFF
cmake --build "$NOSIMD_DIR" -j --target test_hn_kernel --target test_serving \
    --target test_parallel
(cd "$NOSIMD_DIR" && ctest --output-on-failure -L '^(kernel|serving)$')
(cd "$NOSIMD_DIR" && ctest --output-on-failure -R '^test_parallel$')

echo "== tier-1: fault + prefix + router + expt + parallel tests under AddressSanitizer =="
# The block pool hands out raw double* payloads indexed by computed
# (layer, head, token) offsets, and eviction recycles freed blocks
# through a free list; ASan catches a stale pointer or an off-by-one
# offset that a functional assertion would miss.  The router leg
# covers SlotBatch::rebind: a spare-repaired shard keeps decoding
# in-flight caches whose blocks live in the retired engine's pool,
# kept alive only by the caches' shared_ptr.  The expt leg runs every
# builtin scenario (solo ones too) on routers whose shards own
# per-shard prefix caches over their own block pools.  The parallel
# leg covers the MoE expert stage: (expert, row-tile) tasks read and
# write column-major staging buffers at group offsets, over every
# batch, kernel, pool width and dead-row case of tests/test_parallel.cc.
cmake -B "$ASAN_DIR" -S . -DHNLPU_SANITIZE=address
cmake --build "$ASAN_DIR" -j --target test_fault --target test_prefix \
    --target test_router --target test_expt --target test_parallel
(cd "$ASAN_DIR" && ctest --output-on-failure -L '^(fault|prefix|router|expt)$')
(cd "$ASAN_DIR" && ctest --output-on-failure -R '^test_parallel$')

echo "== tier-1: router + fault tests under UBSan =="
cmake -B "$UBSAN_DIR" -S . -DHNLPU_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j --target test_router --target test_fault
(cd "$UBSAN_DIR" && ctest --output-on-failure -L '^(router|fault)$')

echo "== tier-1: router chaos bench survives a killed shard =="
# 4 shards, heavy-tail arrivals, a seeded mid-run fault schedule that
# drains one shard outright; the bench exits non-zero unless every
# completed request is bit-identical to a clean solo generate and
# every shed carries a typed policy reason.  The JSON report must
# satisfy a strict parser.
cmake --build "$BUILD_DIR" -j --target bench_router_chaos
"$BUILD_DIR"/bench/bench_router_chaos 56 \
    "$BUILD_DIR"/BENCH_router.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_router.json > /dev/null

echo "== tier-1: datacenter bench replays deterministically =="
# Smoke-sized fleet on the unified event clock with live fault
# injection; the bench exits non-zero unless the same seed replays to
# a byte-identical report and every request is completed or shed.  The
# report must satisfy a strict parser.
cmake --build "$BUILD_DIR" -j --target bench_datacenter
"$BUILD_DIR"/bench/bench_datacenter --smoke \
    "$BUILD_DIR"/BENCH_datacenter.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_datacenter.json > /dev/null

echo "== tier-1: prefix-cache bench hits its TTFT target =="
# Shared-system-prompt mixes with the cache off and on; the bench
# exits non-zero unless decoded tokens are bit-identical at every mix
# and the 90% mix cuts reference-path p50 TTFT by >= 1.5x.
cmake --build "$BUILD_DIR" -j --target bench_prefix
"$BUILD_DIR"/bench/bench_prefix 24 \
    "$BUILD_DIR"/BENCH_prefix.json > /dev/null
python3 -m json.tool "$BUILD_DIR"/BENCH_prefix.json > /dev/null

echo "== tier-1: every shipped experiment config smoke-runs =="
# bench_expt --config parses each examples/expt/ file with the
# schema-checked reader, expands the scenario matrix and serves every
# scenario on a smoke-capped trace; the report must satisfy a strict
# parser.  (Registry/file drift fails test_expt, not this leg.)
cmake --build "$BUILD_DIR" -j --target bench_expt
for config in examples/expt/*.json; do
    "$BUILD_DIR"/bench/bench_expt --config "$config" --smoke \
        --json-out "$BUILD_DIR"/BENCH_expt_smoke.json > /dev/null
    python3 -m json.tool "$BUILD_DIR"/BENCH_expt_smoke.json > /dev/null
done

echo "== tier-1: warning-free Release build =="
cmake -B "$WERROR_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$WERROR_DIR" -j

echo "tier-1 OK"
