/**
 * @file
 * Tests for the parallel execution layer: the ThreadPool itself, the
 * thread-safe lazy HN-array programming (the call_once fix), and the
 * bit-exact serial-vs-parallel equivalence of every hot path the
 * engine partitions (Linear rows, HN-array rows, the MoE expert
 * stage's (expert, row-tile) tasks, attention heads, full token decode
 * on both execution paths).
 *
 * scripts/tier1.sh runs it, like every test, under ThreadSanitizer, so
 * any unsynchronised shared state on these paths fails the tier-1 run
 * even when it happens not to corrupt a value, and under
 * AddressSanitizer: the expert stage indexes flat per-group staging
 * buffers by raw row and column offsets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "hn/hn_simd.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/linear.hh"
#include "xformer/moe.hh"
#include "xformer/sampler.hh"
#include "xformer/weights.hh"

namespace hnlpu {
namespace {

Vec
randomVec(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Vec x(n);
    for (double &v : x)
        v = rng.gaussian(0.0, 1.0);
    return x;
}

TEST(ThreadPool, ChunkRangeIsADisjointCover)
{
    for (std::size_t n : {0u, 1u, 2u, 7u, 8u, 64u, 1000u}) {
        for (std::size_t chunks : {1u, 2u, 3u, 4u, 8u, 13u}) {
            std::size_t expected_begin = 0;
            for (std::size_t i = 0; i < chunks; ++i) {
                const auto [begin, end] =
                    ThreadPool::chunkRange(i, chunks, n);
                EXPECT_EQ(begin, expected_begin);
                EXPECT_LE(begin, end);
                expected_begin = end;
            }
            EXPECT_EQ(expected_begin, n);
        }
    }
}

TEST(ThreadPool, AlignedChunkRangeIsADisjointCover)
{
    for (std::size_t n : {1u, 2u, 5u, 7u, 8u, 64u, 100u, 1000u}) {
        for (std::size_t chunks : {1u, 2u, 3u, 4u, 8u, 13u}) {
            for (std::size_t align : {1u, 2u, 8u, 16u}) {
                std::size_t expected_begin = 0;
                for (std::size_t i = 0; i < chunks; ++i) {
                    const auto [begin, end] =
                        ThreadPool::alignedChunkRange(i, chunks, n,
                                                      align);
                    EXPECT_EQ(begin, expected_begin)
                        << "n " << n << " chunks " << chunks
                        << " align " << align << " chunk " << i;
                    EXPECT_LE(begin, end);
                    // Interior boundaries land on the alignment, so a
                    // cache line of outputs never straddles two
                    // workers' chunks.
                    if (i > 0) {
                        EXPECT_EQ(begin % align, 0u);
                    }
                    expected_begin = end;
                }
                EXPECT_EQ(expected_begin, n);
            }
        }
    }
}

TEST(ThreadPool, EffectiveChunksIsWorkSizeAware)
{
    // Tiny jobs never fan out wider than n / grain: a 12-row GEMV on
    // an 8-wide pool with a 16-row grain stays serial.
    EXPECT_EQ(ThreadPool::effectiveChunks(12, 16, 8, 0), 1u);
    EXPECT_EQ(ThreadPool::effectiveChunks(64, 16, 8, 0), 4u);
    EXPECT_EQ(ThreadPool::effectiveChunks(128, 16, 8, 0), 8u);
    // grain 1 (default): bounded by n and the pool width.
    EXPECT_EQ(ThreadPool::effectiveChunks(3, 1, 8, 0), 3u);
    EXPECT_EQ(ThreadPool::effectiveChunks(1000, 1, 8, 0), 8u);
    // The hardware cap clamps an oversubscribed pool.
    EXPECT_EQ(ThreadPool::effectiveChunks(1000, 1, 8, 2), 2u);
    EXPECT_EQ(ThreadPool::effectiveChunks(1000, 1, 2, 8), 2u);
    // Degenerate inputs still yield one chunk.
    EXPECT_EQ(ThreadPool::effectiveChunks(1, 100, 8, 0), 1u);
    EXPECT_EQ(ThreadPool::effectiveChunks(5, 1, 0, 0), 1u);
}

TEST(ThreadPool, ParallelForChunkedVisitsEveryIndexExactlyOnce)
{
    // cap_to_hardware=false forces real fan-out even on narrow CI
    // machines, so the chunked dispatch/join handshake is exercised.
    ThreadPool pool(4, /*cap_to_hardware=*/false);
    for (std::size_t n : {1u, 3u, 5u, 16u, 129u}) {
        for (std::size_t align : {1u, 8u}) {
            std::vector<std::atomic<int>> hits(n);
            for (auto &h : hits)
                h = 0;
            std::atomic<std::size_t> max_chunk{0};
            pool.parallelForChunked(
                n,
                [&](std::size_t chunk, std::size_t begin,
                    std::size_t end) {
                    std::size_t seen = max_chunk.load();
                    while (chunk > seen &&
                           !max_chunk.compare_exchange_weak(seen,
                                                            chunk)) {
                    }
                    for (std::size_t i = begin; i < end; ++i)
                        ++hits[i];
                },
                1, align);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "n " << n << " align " << align << " index "
                    << i;
            EXPECT_LT(max_chunk.load(), pool.threadCount());
        }
    }
}

TEST(ThreadPool, GrainKeepsTinyJobsSerial)
{
    // Satellite regression: a 12-element job with a 16-element grain
    // must not wake any worker -- it runs as chunk 0 on the caller.
    ThreadPool pool(8, /*cap_to_hardware=*/false);
    std::atomic<std::size_t> chunks_seen{0};
    std::atomic<std::size_t> visited{0};
    pool.parallelForChunked(
        12,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
            EXPECT_EQ(chunk, 0u);
            ++chunks_seen;
            visited += end - begin;
        },
        /*grain=*/16);
    EXPECT_EQ(chunks_seen.load(), 1u);
    EXPECT_EQ(visited.load(), 12u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce)
{
    ThreadPool pool(4, /*cap_to_hardware=*/false);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 129u}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                ++hits[i];
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::size_t visited = 0;
    pool.parallelFor(10, [&](std::size_t begin, std::size_t end) {
        visited += end - begin;
    });
    EXPECT_EQ(visited, 10u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4, /*cap_to_hardware=*/false);
    std::vector<std::atomic<int>> hits(64);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t outer = begin; outer < end; ++outer) {
            // Nested call from a pool-owned region: must run inline.
            pool.parallelFor(8, [&](std::size_t b, std::size_t e) {
                for (std::size_t inner = b; inner < e; ++inner)
                    ++hits[outer * 8 + inner];
            });
        }
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    ThreadPool pool(3, /*cap_to_hardware=*/false);
    std::atomic<std::size_t> total{0};
    for (int job = 0; job < 200; ++job) {
        pool.parallelFor(17, [&](std::size_t begin, std::size_t end) {
            total += end - begin;
        });
    }
    EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPool, HandoffSurvivesMixedWidthsParkingAndTeardown)
{
    // Stress the spin-then-park handoff.  Jobs of 1..4 chunks alternate
    // on a 4-wide pool, so workers outside a job's chunk count sit out
    // while others run; some jobs follow a gap past the spin budget
    // (workers park and must be woken), some have a chunk that outlasts
    // it (the caller parks on its join), and each pool is destroyed
    // either straight after a job (workers still spinning) or after
    // idling (workers parked).  Every index is visited exactly once.
    constexpr std::size_t kN = 60; // divisible by every width
    constexpr std::size_t kWidths[] = {4, 1, 3, 2, 4, 2, 1, 3, 3, 4, 2};
    const auto beyond_budget = 4 * ThreadPool::kSpinBudget;
    std::size_t jobs = 0;
    for (int life = 0; life < 6; ++life) {
        ThreadPool pool(4, /*cap_to_hardware=*/false);
        for (std::size_t round = 0; round < 160; ++round, ++jobs) {
            const std::size_t width =
                kWidths[(round + life) % std::size(kWidths)];
            const bool slow_chunk = round % 16 == 5;
            if (round % 8 == 3)
                std::this_thread::sleep_for(beyond_budget);
            std::vector<std::atomic<int>> hits(kN);
            for (auto &h : hits)
                h = 0;
            std::atomic<unsigned> chunk_mask{0};
            pool.parallelForChunked(
                kN,
                [&](std::size_t chunk, std::size_t begin,
                    std::size_t end) {
                    if (slow_chunk && chunk + 1 == width)
                        std::this_thread::sleep_for(beyond_budget);
                    chunk_mask |= 1u << chunk;
                    for (std::size_t i = begin; i < end; ++i)
                        ++hits[i];
                },
                /*grain=*/kN / width);
            ASSERT_EQ(chunk_mask.load(), (1u << width) - 1)
                << "life " << life << " round " << round;
            for (std::size_t i = 0; i < kN; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "life " << life << " round " << round << " index "
                    << i;
        }
        if (life % 2 == 1)
            std::this_thread::sleep_for(beyond_budget);
    }
    EXPECT_EQ(jobs, 6u * 160u);
}

#if defined(__linux__)
TEST(ThreadPool, CapAndPinningFollowTheAffinityMask)
{
    // A pool started under a 2-CPU mask caps its jobs at 2 chunks and
    // pins every thread inside the mask.  The last two CPUs of the
    // mask are used, so pinning to CPUs 0..n-1 would leave it.  The
    // second pool is built after the first unpinned the thread on
    // destruction.  The test runs on its own thread so that a failed
    // check cannot leave the other tests on a narrowed mask.
    cpu_set_t original;
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
    if (CPU_COUNT(&original) < 2)
        GTEST_SKIP() << "needs 2 CPUs in the affinity mask";
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (int cpu = CPU_SETSIZE - 1, taken = 0; cpu >= 0 && taken < 2;
         --cpu) {
        if (CPU_ISSET(cpu, &original)) {
            CPU_SET(cpu, &narrow);
            ++taken;
        }
    }
    // True when the calling thread is pinned to one CPU of `narrow`.
    const auto pinned_inside = [&narrow] {
        cpu_set_t mine;
        if (sched_getaffinity(0, sizeof(mine), &mine) != 0)
            return false;
        cpu_set_t outside;
        CPU_XOR(&outside, &mine, &narrow);
        CPU_AND(&outside, &outside, &mine);
        return CPU_COUNT(&mine) == 1 && CPU_COUNT(&outside) == 0;
    };

    std::thread([&] {
        ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(narrow),
                                         &narrow),
                  0);
        for (int pass = 0; pass < 2; ++pass) {
            // The second pool is built on the thread the first one
            // pinned to a single CPU and unpinned again; it sees both.
            ThreadPool pool(4);
            EXPECT_EQ(pool.hardwareCap(), 2u) << "pass " << pass;
            pool.pinThreads();
            EXPECT_TRUE(pinned_inside()) << "pass " << pass;
            std::vector<std::atomic<int>> hits(100);
            for (auto &h : hits)
                h = 0;
            std::atomic<std::size_t> chunks{0};
            std::atomic<std::size_t> outside{0};
            pool.parallelForChunked(
                hits.size(),
                [&](std::size_t, std::size_t begin, std::size_t end) {
                    ++chunks;
                    if (!pinned_inside())
                        ++outside;
                    for (std::size_t i = begin; i < end; ++i)
                        ++hits[i];
                });
            EXPECT_EQ(chunks.load(), 2u) << "pass " << pass;
            EXPECT_EQ(outside.load(), 0u) << "pass " << pass;
            for (std::size_t i = 0; i < hits.size(); ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
        pthread_setaffinity_np(pthread_self(), sizeof(original),
                               &original);
    }).join();
}
#endif

// Regression for the lazy hardwired-array data race: before the
// std::call_once fix, concurrent first use of a Linear's Hardwired
// path raced on the lazily-built HN array (and TSan flags the old
// unsynchronised write even when the values survive).
TEST(Linear, ConcurrentHardwiredFirstUseProgramsOnce)
{
    const Linear lin = Linear::random(24, 64, 99);
    const Vec x = randomVec(64, 5);
    const Vec serial = lin.forward(x, ExecContext{ExecPath::Hardwired, 12});

    constexpr int kThreads = 8;
    std::vector<Vec> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = lin.forward(x, ExecContext{ExecPath::Hardwired, 12});
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(results[t], serial) << "thread " << t;
}

TEST(Linear, CopiesShareTheHardwiredArrayUnderConcurrency)
{
    const Linear original = Linear::random(16, 32, 7);
    const Linear copy = original; // shares the once-flag and array
    const Vec x = randomVec(32, 11);

    Vec from_original, from_copy;
    std::thread a([&] {
        from_original = original.forward(x, ExecContext{ExecPath::Hardwired, 10});
    });
    std::thread b([&] {
        from_copy = copy.forward(x, ExecContext{ExecPath::Hardwired, 10});
    });
    a.join();
    b.join();
    EXPECT_EQ(from_original, from_copy);
}

TEST(Linear, ParallelRowsBitExactOnBothPaths)
{
    const Linear lin = Linear::random(37, 48, 123);
    const Vec x = randomVec(48, 17);
    ThreadPool pool(4);

    const Vec ref_serial = lin.forward(x, ExecContext{ExecPath::Reference});
    const Vec ref_parallel =
        lin.forward(x, ExecContext{ExecPath::Reference, 8,
                                     HnKernel::Packed, nullptr, &pool});
    EXPECT_EQ(ref_serial, ref_parallel);

    const Vec hw_serial = lin.forward(x, ExecContext{ExecPath::Hardwired, 10});
    const Vec hw_parallel =
        lin.forward(x, ExecContext{ExecPath::Hardwired, 10,
                                     HnKernel::Packed, nullptr, &pool});
    EXPECT_EQ(hw_serial, hw_parallel);
}

TEST(Linear, ParallelHardwiredActivityMatchesSerial)
{
    const Linear lin = Linear::random(29, 40, 321);
    const Vec x = randomVec(40, 23);
    ThreadPool pool(4);

    HnActivity serial, parallel;
    const Vec a = lin.forward(x, ExecContext{ExecPath::Hardwired, 9,
                                              HnKernel::Packed, &serial});
    const Vec b =
        lin.forward(x, ExecContext{ExecPath::Hardwired, 9,
                                   HnKernel::Packed, &parallel, &pool});
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.popcountBitOps, parallel.popcountBitOps);
    EXPECT_EQ(serial.multiplyOps, parallel.multiplyOps);
    EXPECT_EQ(serial.treeAddOps, parallel.treeAddOps);
}

MoeLayer
testMoe(std::size_t hidden, std::size_t experts, std::size_t active,
        std::uint64_t seed)
{
    std::vector<Expert> ex;
    ex.reserve(experts);
    for (std::size_t e = 0; e < experts; ++e) {
        ex.push_back(Expert{
            Linear::random(hidden * 2, hidden, seed + 3 * e),
            Linear::random(hidden * 2, hidden, seed + 3 * e + 1),
            Linear::random(hidden, hidden * 2, seed + 3 * e + 2),
        });
    }
    return MoeLayer(Linear::random(experts, hidden, seed + 1000),
                    std::move(ex), active);
}

TEST(MoeLayer, ParallelExpertsBitExact)
{
    const MoeLayer moe = testMoe(24, 4, 2, 77);
    const Vec x = randomVec(24, 31);
    ThreadPool pool(4);

    for (ExecPath path : {ExecPath::Reference, ExecPath::Hardwired}) {
        std::vector<std::size_t> serial_sel, parallel_sel;
        const Vec serial = moe.forward(x, ExecContext{path, 10}, &serial_sel);
        const Vec parallel =
            moe.forward(x,
                        ExecContext{path, 10, HnKernel::Packed, nullptr,
                                    &pool},
                        &parallel_sel);
        EXPECT_EQ(serial, parallel);
        EXPECT_EQ(serial_sel, parallel_sel);
    }
}

// The expert stage's (expert, row-tile) schedule at the wide block's
// width: up and gate read hidden = 1024 inputs.  Their 48 rows and
// down's 40 rows cut into several 8-row tiles per expert on every pool
// width.
constexpr std::size_t kWideHidden = 1024;
constexpr std::size_t kWideFfn = 48;
constexpr std::size_t kWideOut = 40;

Linear
withDeadRow(const Linear &lin, std::uint32_t row)
{
    return Linear(lin.codes(), lin.outDim(), lin.inDim(), {row});
}

/** A wide expert; @p dead kills one up row and one down row. */
Expert
wideExpert(std::uint64_t seed, bool dead)
{
    Expert ex{Linear::random(kWideFfn, kWideHidden, seed),
              Linear::random(kWideFfn, kWideHidden, seed + 1),
              Linear::random(kWideOut, kWideFfn, seed + 2)};
    if (dead) {
        ex.up = withDeadRow(ex.up, 5);
        ex.down = withDeadRow(ex.down, 17);
    }
    return ex;
}

/**
 * 4 experts, top-2, expert 1 with dead rows.  With @p skewed the
 * router's expert-0 row is all +6, so on positive inputs every token
 * picks expert 0 and the others share the second routing slot.
 */
MoeLayer
wideMoe(bool skewed)
{
    std::vector<Expert> experts;
    for (std::size_t e = 0; e < 4; ++e)
        experts.push_back(wideExpert(500 + 3 * e, e == 1));
    Linear router = Linear::random(4, kWideHidden, 900);
    if (skewed) {
        std::vector<Fp4> codes = router.codes();
        std::fill(codes.begin(), codes.begin() + kWideHidden,
                  Fp4::quantize(6.0));
        router = Linear(std::move(codes), 4, kWideHidden);
    }
    return MoeLayer(std::move(router), std::move(experts), 2);
}

/** 9 hidden states; all positive when @p positive. */
std::vector<Vec>
wideTokens(bool positive)
{
    std::vector<Vec> xs;
    for (std::size_t t = 0; t < 9; ++t) {
        Vec x = randomVec(kWideHidden, 40 + t);
        if (positive) {
            for (double &v : x)
                v = std::fabs(v) + 0.25;
        }
        xs.push_back(std::move(x));
    }
    return xs;
}

struct MoeRun
{
    std::vector<Vec> out;
    std::vector<std::vector<std::size_t>> selected;
};

MoeRun
runMoe(const MoeLayer &moe, const std::vector<Vec> &xs,
       const ExecContext &ctx)
{
    MoeRun run;
    run.selected.resize(xs.size());
    run.out = moe.forwardBatch(xs, ctx, run.selected);
    return run;
}

/**
 * Every batch in {1, 2, 3, 8, 9} (crossing kHnBatchChunk) on 2, 3 and 4
 * threads equals the serial batch, and every token of it equals the
 * token run alone -- outputs bit for bit, selected indices exactly.
 * Returns the serial batch of 9 for cross-kernel comparison.
 */
MoeRun
expectTiledScheduleBitExact(const MoeLayer &moe, const std::vector<Vec> &xs,
                            ExecPath path, HnKernel kernel)
{
    SCOPED_TRACE(testing::Message()
                 << "path " << int(path) << " kernel " << int(kernel));
    HnScratchArena arena;
    ExecContext ctx{path, 8, kernel};
    ctx.arena = &arena;
    std::vector<MoeRun> solo;
    for (const Vec &x : xs)
        solo.push_back(runMoe(moe, {x}, ctx));

    // Forced concurrency: uncapped pools run every chunk on its own
    // thread even on a small host.
    ThreadPool pool2(2, false), pool3(3, false), pool4(4, false);
    MoeRun full;
    for (std::size_t batch : {1u, 2u, 3u, 8u, 9u}) {
        const std::vector<Vec> prefix(xs.begin(), xs.begin() + batch);
        const MoeRun serial = runMoe(moe, prefix, ctx);
        for (std::size_t t = 0; t < batch; ++t) {
            EXPECT_EQ(serial.out[t], solo[t].out[0])
                << "batch " << batch << " token " << t;
            EXPECT_EQ(serial.selected[t], solo[t].selected[0]);
        }
        for (ThreadPool *pool : {&pool2, &pool3, &pool4}) {
            ExecContext pctx = ctx;
            pctx.pool = pool;
            const MoeRun parallel = runMoe(moe, prefix, pctx);
            EXPECT_EQ(serial.out, parallel.out)
                << "batch " << batch << " threads "
                << pool->threadCount();
            EXPECT_EQ(serial.selected, parallel.selected);
        }
        full = serial;
    }
    return full;
}

TEST(MoeLayer, TiledScheduleBitExactOnEveryKernelAndTier)
{
    const MoeLayer moe = wideMoe(false);
    const std::vector<Vec> xs = wideTokens(false);
    expectTiledScheduleBitExact(moe, xs, ExecPath::Reference,
                                HnKernel::Packed);
    const MoeRun packed = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Packed);
    const MoeRun scalar = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Scalar);
    EXPECT_EQ(scalar.out, packed.out);
    for (HnSimdLevel level : hnSupportedSimdLevels()) {
        SCOPED_TRACE(testing::Message() << "simd level " << int(level));
        ScopedHnSimdLevel force(level);
        const MoeRun simd = expectTiledScheduleBitExact(
            moe, xs, ExecPath::Hardwired, HnKernel::Simd);
        EXPECT_EQ(simd.out, packed.out);
    }
}

TEST(MoeLayer, TiledScheduleBitExactOnUnevenGroups)
{
    const MoeLayer moe = wideMoe(true);
    const std::vector<Vec> xs = wideTokens(true);
    const MoeRun reference = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Reference, HnKernel::Packed);
    // Expert 0 takes every token; the others split the second slot.
    for (const std::vector<std::size_t> &sel : reference.selected)
        EXPECT_EQ(sel.front(), 0u);
    const MoeRun packed = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Packed);
    const MoeRun simd = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Simd);
    EXPECT_EQ(simd.out, packed.out);
}

TEST(MoeLayer, TiledScheduleBitExactOnDenseLayer)
{
    const MoeLayer moe = MoeLayer::dense(wideExpert(700, true));
    const std::vector<Vec> xs = wideTokens(false);
    expectTiledScheduleBitExact(moe, xs, ExecPath::Reference,
                                HnKernel::Packed);
    const MoeRun packed = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Packed);
    const MoeRun simd = expectTiledScheduleBitExact(
        moe, xs, ExecPath::Hardwired, HnKernel::Simd);
    EXPECT_EQ(simd.out, packed.out);
}

struct EngineRun
{
    std::vector<Vec> logits;
    std::vector<std::size_t> generated;
    EngineStats stats;
};

EngineRun
runEngine(const TransformerConfig &cfg, const ModelWeights &weights,
          ExecPath path, std::size_t threads)
{
    Engine engine(cfg, weights, path, 8, ExecOptions{threads});
    KvCache cache = engine.makeCache();
    EngineRun run;
    for (std::size_t token : {3u, 17u, 42u, 8u})
        run.logits.push_back(engine.forwardToken(token, cache));

    Sampler greedy(SamplerConfig{}, 1);
    run.generated = engine.generate({3, 17, 42}, 6, greedy);
    run.stats = engine.stats();
    return run;
}

void
expectRunsEqual(const EngineRun &serial, const EngineRun &parallel)
{
    ASSERT_EQ(serial.logits.size(), parallel.logits.size());
    for (std::size_t i = 0; i < serial.logits.size(); ++i)
        EXPECT_EQ(serial.logits[i], parallel.logits[i])
            << "logits diverge at step " << i;
    EXPECT_EQ(serial.generated, parallel.generated);
    EXPECT_EQ(serial.stats.expertHistogram,
              parallel.stats.expertHistogram);
    EXPECT_EQ(serial.stats.hnActivity.cycles,
              parallel.stats.hnActivity.cycles);
    EXPECT_EQ(serial.stats.hnActivity.popcountBitOps,
              parallel.stats.hnActivity.popcountBitOps);
    EXPECT_EQ(serial.stats.hnActivity.multiplyOps,
              parallel.stats.hnActivity.multiplyOps);
    EXPECT_EQ(serial.stats.hnActivity.treeAddOps,
              parallel.stats.hnActivity.treeAddOps);
}

TEST(Engine, ParallelDecodeBitExactOnReferencePath)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 1234);
    const EngineRun serial =
        runEngine(cfg, weights, ExecPath::Reference, 1);
    for (std::size_t threads : {2u, 4u}) {
        const EngineRun parallel =
            runEngine(cfg, weights, ExecPath::Reference, threads);
        expectRunsEqual(serial, parallel);
    }
}

TEST(Engine, ParallelDecodeBitExactOnHardwiredPath)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 1234);
    const EngineRun serial =
        runEngine(cfg, weights, ExecPath::Hardwired, 1);
    const EngineRun parallel =
        runEngine(cfg, weights, ExecPath::Hardwired, 4);
    expectRunsEqual(serial, parallel);
}

TEST(Engine, ScoreAndEmbedBitExactUnderThreads)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 99);
    const std::vector<std::size_t> tokens{1, 5, 9, 2, 60};

    Engine serial(cfg, weights, ExecPath::Reference);
    Engine parallel(cfg, weights, ExecPath::Reference, 8,
                    ExecOptions{4});
    EXPECT_EQ(serial.scoreSequence(tokens),
              parallel.scoreSequence(tokens));
    EXPECT_EQ(serial.embedSequence(tokens),
              parallel.embedSequence(tokens));
}

} // namespace
} // namespace hnlpu
