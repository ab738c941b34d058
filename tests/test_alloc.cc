/**
 * @file
 * Heap-allocation guard for steady-state decode.
 *
 * This binary replaces the global operator new and delete to count
 * every heap allocation the process makes (on any thread), which is
 * why it is an executable of its own.  A decode step at batch 1 and at
 * batch 8 (hardwired path, Simd kernel, 4 threads) must, after warmup,
 * make the same number of allocations every step, and no more than the
 * bounds below.  Zero-allocation decode work tightens the bounds
 * towards 0.  Programming an HnArray must make a fixed number of
 * allocations whatever its row count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "hn/hn_array.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/weights.hh"

namespace {

std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (size + align - 1) / align *
                                                  align)
                  : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, std::size_t(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, std::size_t(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hnlpu {
namespace {

/**
 * Upper bounds on heap allocations per decode step of tinyTestModel()
 * (2 layers, 4 experts top-2), measured with this harness: 138 per step
 * at batch 1 and 554 at batch 8 (4-vCPU AVX-512 host, GCC 12.2).
 * wq/wk/wv share one row pass (Linear::forwardFused), and the MoE
 * expert stage leases its buffers on the calling thread, so every step
 * allocates the same.
 */
constexpr std::size_t kBatch1Bound = 138;
constexpr std::size_t kBatch8Bound = 554;

constexpr std::size_t kSteps = 40;
constexpr std::size_t kWarmupSteps = 2;

/**
 * Allocations of each counted decode step at @p batch.  The first pass
 * grows the KV block pool, the engine's scratch and every buffer that
 * keeps its capacity; the second pass decodes fresh caches (their
 * block lists reserved up front) over the released blocks, and its
 * steps after kWarmupSteps are counted.  kSteps crosses two KV block
 * boundaries.
 */
std::vector<std::size_t>
stepAllocations(std::size_t batch)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 1234);
    ExecOptions exec;
    exec.threads = 4;
    exec.kernel = HnKernel::Simd;
    Engine engine(cfg, weights, ExecPath::Hardwired, 8, exec);

    std::vector<std::size_t> counts;
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<KvCache> caches;
        caches.reserve(batch);
        std::vector<KvCache *> cache_ptrs;
        for (std::size_t b = 0; b < batch; ++b)
            caches.push_back(engine.makeCache(kSteps));
        for (KvCache &cache : caches)
            cache_ptrs.push_back(&cache);
        std::vector<std::size_t> tokens(batch);
        for (std::size_t step = 0; step < kSteps; ++step) {
            for (std::size_t b = 0; b < batch; ++b)
                tokens[b] = (step * 7 + b * 3) % cfg.vocabSize;
            const std::size_t before = g_allocations.load();
            engine.forwardTokenBatch(tokens, cache_ptrs);
            const std::size_t after = g_allocations.load();
            if (pass == 1 && step >= kWarmupSteps)
                counts.push_back(after - before);
        }
    }
    return counts;
}

void
expectSteadyAndBounded(std::size_t batch, std::size_t bound)
{
    const std::vector<std::size_t> counts = stepAllocations(batch);
    ASSERT_EQ(counts.size(), kSteps - kWarmupSteps);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts[i], counts.front())
            << "batch " << batch << " step " << kWarmupSteps + i;
    }
    EXPECT_LE(counts.front(), bound) << "batch " << batch;
    std::printf("batch %zu: %zu heap allocations per decode step\n",
                batch, counts.front());
}

/**
 * Heap allocations made by programming an HnArray of @p rows rows of
 * 256 columns (its weights are built before counting starts).
 */
std::size_t
arrayAllocations(std::size_t rows)
{
    constexpr std::size_t kCols = 256;
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = kCols;
    tmpl.portsPerSlice = 16;
    tmpl.slackFactor = 4.0;
    const std::vector<Fp4> weights = syntheticFp4Weights(rows * kCols, 11);
    const std::size_t before = g_allocations.load();
    {
        const HnArray array(tmpl, weights, rows, kCols);
    }
    return g_allocations.load() - before;
}

TEST(Alloc, ArrayProgrammingAllocationsDoNotGrowWithRows)
{
    const std::size_t small = arrayAllocations(64);
    const std::size_t large = arrayAllocations(1024);
    EXPECT_EQ(small, large);
    std::printf("HnArray programming: %zu heap allocations at 64 rows, "
                "%zu at 1024\n",
                small, large);
}

TEST(Alloc, DecodeStepAllocationsAreSteadyAndBoundedAtBatch1)
{
    expectSteadyAndBounded(1, kBatch1Bound);
}

TEST(Alloc, DecodeStepAllocationsAreSteadyAndBoundedAtBatch8)
{
    expectSteadyAndBounded(8, kBatch8Bound);
}

} // namespace
} // namespace hnlpu
