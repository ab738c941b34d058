/**
 * @file
 * Paged KV-cache and prefix-sharing tests: block-pool refcounting and
 * free-list reuse, radix-tree insert/match/split, copy-on-write on
 * partially shared blocks, LRU eviction under pool budget pressure,
 * shared-vs-unshared bit-identity across HN kernels and thread counts,
 * eviction determinism under live traffic, concurrent lookup/eviction,
 * and router health probes through the per-shard prefix cache.
 *
 * Registered under ctest label `prefix`; scripts/tier1.sh runs it, like
 * every test, under ThreadSanitizer (concurrent lookup/eviction) and
 * AddressSanitizer (block pool lifetime).  The fatal-path death tests
 * live in test_xformer.cc.
 */

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/model_faults.hh"
#include "model/model_zoo.hh"
#include "serve/router.hh"
#include "xformer/engine.hh"
#include "xformer/kv_block_pool.hh"
#include "xformer/kv_cache.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"

namespace hnlpu {
namespace {

/** Tiny single-layer single-head pool: 4-token blocks, 2-dim heads. */
std::shared_ptr<KvBlockPool>
tinyPool(std::size_t max_blocks = 0)
{
    KvPoolConfig cfg;
    cfg.layers = 1;
    cfg.kvHeads = 1;
    cfg.headDim = 2;
    cfg.blockTokens = 4;
    cfg.maxBlocks = max_blocks;
    return std::make_shared<KvBlockPool>(cfg);
}

/** Append one token with a recognisable payload mark to every layer. */
void
appendMarked(KvCache &cache, std::size_t layers, double mark)
{
    for (std::size_t l = 0; l < layers; ++l) {
        const Vec k{mark, mark + 0.5};
        const Vec v{mark + 100.0, mark + 100.5};
        cache.appendFlat(l, k, v);
    }
}

/** Cache whose token t carries mark base + t, for the whole prompt. */
KvCache
markedCache(const std::shared_ptr<KvBlockPool> &pool,
            std::size_t tokens, double base = 0.0)
{
    KvCache cache(pool);
    for (std::size_t t = 0; t < tokens; ++t)
        appendMarked(cache, pool->config().layers, base + double(t));
    return cache;
}

/** Release the pins a PrefixCache::lookup took on the caller's behalf. */
void
unpin(const std::shared_ptr<KvBlockPool> &pool,
      const PrefixCache::Match &m)
{
    for (const KvBlockId id : m.chain)
        pool->unref(id);
}

// -- KvBlockPool ----------------------------------------------------------

TEST(KvBlockPool, RefcountAndFreelistReuse)
{
    const auto pool = tinyPool();
    EXPECT_EQ(pool->totalBlocks(), 0u);

    const KvBlockId a = pool->allocate();
    const KvBlockId b = pool->allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool->refCount(a), 1u);
    EXPECT_EQ(pool->liveBlocks(), 2u);

    pool->ref(a);
    EXPECT_EQ(pool->refCount(a), 2u);
    pool->unref(a);
    EXPECT_EQ(pool->refCount(a), 1u);
    EXPECT_EQ(pool->freeBlocks(), 0u);

    // Dropping the last reference returns the block to the free list;
    // the next allocation reuses it instead of growing the pool.
    pool->unref(b);
    EXPECT_EQ(pool->liveBlocks(), 1u);
    EXPECT_EQ(pool->freeBlocks(), 1u);
    const KvBlockId c = pool->allocate();
    EXPECT_EQ(c, b);
    EXPECT_EQ(pool->totalBlocks(), 2u);

    // Payload pointers are stable across pool growth.
    const double *data_a = pool->blockData(a);
    for (int i = 0; i < 64; ++i)
        pool->allocate();
    EXPECT_EQ(pool->blockData(a), data_a);
}

// -- Radix tree -----------------------------------------------------------

TEST(PrefixCache, RadixInsertMatchSplit)
{
    const auto pool = tinyPool();
    PrefixCache prefix(pool);

    const std::vector<std::size_t> pa{1, 2, 3, 4, 5, 6, 7, 8};
    KvCache ca = markedCache(pool, pa.size());
    prefix.insert(0, pa, ca);
    EXPECT_EQ(prefix.nodeCount(), 1u);

    // Full match pins ceil(8 / 4) = 2 blocks.
    PrefixCache::Match full = prefix.lookup(0, pa, pa.size());
    EXPECT_EQ(full.matchedTokens, 8u);
    ASSERT_EQ(full.chain.size(), 2u);
    unpin(pool, full);

    // Token-granular mid-edge match: [1, 2, 3, 9, 10] shares 3 tokens.
    const std::vector<std::size_t> pb{1, 2, 3, 9, 10};
    PrefixCache::Match part = prefix.lookup(0, pb, pb.size());
    EXPECT_EQ(part.matchedTokens, 3u);
    ASSERT_EQ(part.chain.size(), 1u);
    EXPECT_EQ(part.chain[0], ca.blockId(0));

    // Adopt the matched prefix and verify the payload is ca's tokens.
    KvCache cb(pool);
    cb.adoptPrefix(part.chain, part.matchedTokens);
    EXPECT_EQ(cb.length(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_DOUBLE_EQ(cb.key(0, 0, t)[0], double(t));
        EXPECT_DOUBLE_EQ(cb.value(0, 0, t)[0], double(t) + 100.0);
    }
    appendMarked(cb, 1, 30.0);
    appendMarked(cb, 1, 31.0);
    prefix.insert(0, pb, cb);

    // The shared edge split: mid node [1,2,3] + two diverging leaves.
    EXPECT_EQ(prefix.nodeCount(), 3u);
    PrefixCache::Match mid = prefix.lookup(0, {1, 2, 3}, 3);
    EXPECT_EQ(mid.matchedTokens, 3u);
    unpin(pool, mid);
    // A lookup past the split still matches token-granularly into the
    // original branch.
    PrefixCache::Match deep = prefix.lookup(0, {1, 2, 3, 4, 99}, 5);
    EXPECT_EQ(deep.matchedTokens, 4u);
    unpin(pool, deep);
    // ca's view never changed despite cb's divergent appends.
    for (std::size_t t = 0; t < 8; ++t)
        EXPECT_DOUBLE_EQ(ca.key(0, 0, t)[0], double(t));

    // Unknown first token misses entirely.
    PrefixCache::Match miss = prefix.lookup(0, {42, 1, 2}, 3);
    EXPECT_EQ(miss.matchedTokens, 0u);
    EXPECT_TRUE(miss.chain.empty());
    EXPECT_GE(prefix.hits(), 4u);
    EXPECT_EQ(prefix.misses(), 1u);
}

TEST(PrefixCache, CowOnPartiallySharedBlock)
{
    const auto pool = tinyPool();
    PrefixCache prefix(pool);

    const std::vector<std::size_t> prompt{10, 11, 12, 13, 14, 15};
    KvCache ca = markedCache(pool, prompt.size());
    prefix.insert(0, prompt, ca);

    // Adopt 5 of 6 tokens: both blocks pinned, the second partially
    // covered (one matched token in a 4-token block).
    PrefixCache::Match m = prefix.lookup(0, prompt, 5);
    ASSERT_EQ(m.matchedTokens, 5u);
    ASSERT_EQ(m.chain.size(), 2u);
    KvCache cb(pool);
    cb.adoptPrefix(m.chain, m.matchedTokens);
    EXPECT_EQ(cb.blockId(1), ca.blockId(1));

    // Appending token 5 writes into the shared tail block: cb must
    // copy-on-write (refcount > 1), leaving ca's payload untouched.
    appendMarked(cb, 1, 50.0);
    EXPECT_NE(cb.blockId(1), ca.blockId(1));
    EXPECT_DOUBLE_EQ(cb.key(0, 0, 4)[0], 4.0);  // copied span
    EXPECT_DOUBLE_EQ(cb.key(0, 0, 5)[0], 50.0); // fresh write
    EXPECT_DOUBLE_EQ(ca.key(0, 0, 5)[0], 5.0);  // donor unperturbed

    // The COW'd block is exclusively cb's: the next append reuses it
    // in place instead of copying again.
    const KvBlockId cow = cb.blockId(1);
    appendMarked(cb, 1, 51.0);
    EXPECT_EQ(cb.blockId(1), cow);
}

TEST(PrefixCache, LruEvictionUnderPoolPressure)
{
    const auto pool = tinyPool(/*max_blocks=*/4);
    PrefixCache prefix(pool);

    const std::vector<std::size_t> p1{1, 2, 3, 4};
    const std::vector<std::size_t> p2{5, 6, 7, 8};
    {
        KvCache c1 = markedCache(pool, p1.size());
        prefix.insert(0, p1, c1);
        KvCache c2 = markedCache(pool, p2.size(), 20.0);
        prefix.insert(0, p2, c2);
    } // caches die; the tree keeps both prompts' blocks live
    EXPECT_EQ(pool->liveBlocks(), 2u);

    // Touch p2 so p1 is the LRU leaf.
    unpin(pool, prefix.lookup(0, p2, p2.size()));

    // A 12-token sequence needs 3 blocks; the 4-block budget forces
    // the pool to reclaim through the evictor, which drops exactly the
    // LRU prefix (p1) and nothing else.
    KvCache big = markedCache(pool, 12, 40.0);
    EXPECT_EQ(prefix.evictions(), 1u);
    EXPECT_EQ(prefix.lookup(0, p1, p1.size()).matchedTokens, 0u);
    const PrefixCache::Match survivor = prefix.lookup(0, p2, p2.size());
    EXPECT_EQ(survivor.matchedTokens, 4u);
    unpin(pool, survivor);
    EXPECT_LE(pool->totalBlocks(), 4u);
}

// -- Serving integration --------------------------------------------------

/** Shared-system-prompt trace: 2 of every 3 requests open with the
 *  same @p shared tokens, then diverge into a unique tail. */
std::vector<ServingRequest>
sharedTrace(const TransformerConfig &cfg, std::size_t requests,
            std::size_t shared)
{
    std::vector<ServingRequest> trace;
    for (std::size_t r = 0; r < requests; ++r) {
        ServingRequest req;
        if (r % 3 != 2) {
            for (std::size_t t = 0; t < shared; ++t)
                req.prompt.push_back((3 + 17 * t) % cfg.vocabSize);
        }
        for (std::size_t t = 0; t < 3 + r % 2; ++t)
            req.prompt.push_back((7 + 131 * r + 29 * t) %
                                 cfg.vocabSize);
        req.decodeTokens = 5;
        req.arrivalStep = r;
        req.seed = r;
        trace.push_back(std::move(req));
    }
    return trace;
}

TEST(PrefixServing, SharedVsUnsharedBitIdentity)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 301);
    const auto trace = sharedTrace(cfg, 9, 10);

    for (const HnKernel kernel :
         {HnKernel::Scalar, HnKernel::Packed, HnKernel::Simd}) {
        for (const std::size_t threads : {1u, 2u}) {
            ExecOptions exec;
            exec.threads = threads;
            exec.kernel = kernel;
            exec.kvBlockTokens = 4;

            // Solo transcripts through an unshared engine: the ground
            // truth every prefix-shared decode must reproduce.
            Engine solo(cfg, weights, ExecPath::Hardwired, 8, exec);
            std::vector<std::vector<std::size_t>> want;
            for (const ServingRequest &req : trace) {
                Sampler sampler(req.sampler, req.seed);
                want.push_back(solo.generate(
                    req.prompt, req.decodeTokens, sampler));
            }

            Engine engine(cfg, weights, ExecPath::Hardwired, 8, exec);
            PrefixCache prefix(engine.kvPool());
            ServingEngine serving(engine, 3, &prefix);
            for (const ServingRequest &req : trace)
                ASSERT_TRUE(serving.tryEnqueue(req).admitted());
            const auto outcomes = serving.run();

            ASSERT_EQ(outcomes.size(), trace.size());
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                EXPECT_EQ(outcomes[i].tokens, want[i])
                    << "kernel " << int(kernel) << " threads "
                    << threads << " request " << i;
            }
            // The staggered arrivals guarantee at least one later
            // shared-prompt admission finds the earlier prefill.
            EXPECT_GT(serving.stats().prefixHits, 0u)
                << "kernel " << int(kernel) << " threads " << threads;
            EXPECT_GT(serving.stats().prefixMatchedTokens, 0u);
        }
    }
}

TEST(PrefixServing, SkipsPrefillForwardsAndKeepsTokens)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 302);

    // Two requests with a common 12-token prompt head, served
    // sequentially (1 slot) so the second admission sees the first
    // prompt fully indexed.
    std::vector<ServingRequest> trace(2);
    for (std::size_t t = 0; t < 12; ++t) {
        trace[0].prompt.push_back((5 + 13 * t) % cfg.vocabSize);
        trace[1].prompt.push_back((5 + 13 * t) % cfg.vocabSize);
    }
    trace[1].prompt.push_back(9);
    trace[0].decodeTokens = trace[1].decodeTokens = 4;
    trace[1].seed = 1;

    ExecOptions exec;
    exec.kvBlockTokens = 4;

    const auto serve = [&](bool with_prefix) {
        Engine engine(cfg, weights, ExecPath::Reference, 8, exec);
        std::optional<PrefixCache> prefix;
        if (with_prefix)
            prefix.emplace(engine.kvPool());
        ServingEngine serving(engine, 1,
                              prefix ? &*prefix : nullptr);
        for (const ServingRequest &req : trace)
            EXPECT_TRUE(serving.tryEnqueue(req).admitted());
        const auto outcomes = serving.run();
        std::vector<std::vector<std::size_t>> tokens;
        for (const auto &out : outcomes)
            tokens.push_back(out.tokens);
        return std::make_pair(tokens, serving.stats());
    };

    const auto unshared = serve(false);
    const auto shared = serve(true);
    EXPECT_EQ(shared.first, unshared.first);
    EXPECT_EQ(unshared.second.prefixHits, 0u);
    EXPECT_EQ(shared.second.prefixHits, 1u);
    EXPECT_EQ(shared.second.prefixMisses, 1u);
    // The hit skipped 12 matched tokens of prefill, so the shared run
    // issues exactly that many fewer forwards (and finishes earlier).
    EXPECT_EQ(shared.second.prefixMatchedTokens, 12u);
    EXPECT_EQ(shared.second.forwards + 12, unshared.second.forwards);
    EXPECT_LT(shared.second.executedSteps,
              unshared.second.executedSteps);
}

TEST(PrefixServing, EvictionUnderLiveTrafficIsDeterministic)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 303);
    const auto trace = sharedTrace(cfg, 8, 8);

    ExecOptions exec;
    exec.kvBlockTokens = 4;
    // Tight budget: the working set fits, the accumulated prefix tree
    // does not, so serving must evict mid-run to keep admitting.
    exec.kvPoolBlocks = 12;

    const auto serve = [&] {
        Engine engine(cfg, weights, ExecPath::Reference, 8, exec);
        PrefixCache prefix(engine.kvPool());
        ServingEngine serving(engine, 2, &prefix);
        for (const ServingRequest &req : trace)
            EXPECT_TRUE(serving.tryEnqueue(req).admitted());
        const auto outcomes = serving.run();
        std::vector<std::vector<std::size_t>> tokens;
        for (const auto &out : outcomes)
            tokens.push_back(out.tokens);
        return std::make_tuple(tokens, serving.stats().executedSteps,
                               prefix.evictions());
    };

    const auto first = serve();
    const auto second = serve();
    EXPECT_GT(std::get<2>(first), 0u)
        << "budget never forced an eviction; tighten kvPoolBlocks";
    // Same trace, same budget: identical tokens, step clock and
    // eviction count on every run (LRU runs on a deterministic tick).
    EXPECT_EQ(std::get<0>(first), std::get<0>(second));
    EXPECT_EQ(std::get<1>(first), std::get<1>(second));
    EXPECT_EQ(std::get<2>(first), std::get<2>(second));

    // And eviction never broke bit-identity against solo decodes.
    Engine solo(cfg, weights, ExecPath::Reference, 8, exec);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        Sampler sampler(trace[i].sampler, trace[i].seed);
        EXPECT_EQ(std::get<0>(first)[i],
                  solo.generate(trace[i].prompt,
                                trace[i].decodeTokens, sampler))
            << "request " << i;
    }
}

// -- Concurrency (TSan leg) -----------------------------------------------

TEST(PrefixConcurrency, ConcurrentLookupAdoptInsertEvict)
{
    const auto pool = tinyPool(/*max_blocks=*/32);
    PrefixCache prefix(pool);

    // 4 threads hammer one prefix cache: lookup/adopt a shared head,
    // append a private tail (COW on the shared block), insert the new
    // prompt, destroy the cache -- while the tight budget forces
    // evictions through the same tree.  TSan validates the refcount
    // protocol (an exclusively held block is written without locks).
    const std::size_t kThreads = 4, kIters = 40;
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            for (std::size_t i = 0; i < kIters; ++i) {
                std::vector<std::size_t> prompt{7, 8, 9};
                prompt.push_back(10 + w);
                prompt.push_back(20 + (i % 5));
                const PrefixCache::Match m =
                    prefix.lookup(0, prompt, prompt.size());
                KvCache cache(pool);
                if (m.matchedTokens > 0)
                    cache.adoptPrefix(m.chain, m.matchedTokens);
                while (cache.length() < prompt.size())
                    appendMarked(cache, 1,
                                 double(w * 1000 + cache.length()));
                prefix.insert(0, prompt, cache);
                appendMarked(cache, 1, double(w * 1000 + 500 + i));
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    // The tree survived and still answers; every cache released its
    // pins, so live blocks are exactly the tree's.
    const PrefixCache::Match m = prefix.lookup(0, {7, 8, 9}, 3);
    EXPECT_EQ(m.matchedTokens, 3u);
    unpin(pool, m);
    EXPECT_LE(pool->totalBlocks(), 32u);
}

// -- Router integration ---------------------------------------------------

TEST(PrefixRouter, ProbeReusesPrefixCacheAndDetectsDivergence)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 304);

    serve::RouterConfig rc;
    rc.shards = 1;
    rc.slotsPerShard = 2;
    rc.prefixCache = true;
    serve::ServingRouter router(cfg, clean, ExecPath::Reference, 8, {},
                                rc);

    // A healthy shard probes bit-identical; the second probe finds the
    // first probe's prompt in the shard's prefix cache and still
    // passes (cached KV was computed by the same engine).
    EXPECT_TRUE(router.probeShardNow(0));
    EXPECT_TRUE(router.probeShardNow(0));
    EXPECT_GE(router.stats().probePrefixHits, 1u);
    EXPECT_EQ(router.stats().probeFailures, 0u);

    // Corrupt the shard beyond repair mid-run.
    FaultModelParams corrupting;
    corrupting.seed = 9;
    corrupting.stuckBitRate = 0.05;
    corrupting.deadRowRate = 0.05;
    corrupting.spareRows = 0;

    serve::RouterRequest req;
    req.prompt = {1, 2, 3};
    req.decodeTokens = 6;
    ASSERT_TRUE(router.enqueue(req).admitted());
    serve::ShardFaultEvent event;
    event.step = 2;
    event.shard = 0;
    event.modelFaults = corrupting;
    router.scheduleFault(event);
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_NE(outcomes[0].status, serve::RequestStatus::Completed);
    EXPECT_EQ(router.shardState(0), serve::ShardState::Drained);

    // The rebuilt shard got a fresh prefix cache, and its fault-path
    // probe indexed the probe prompt under the corrupt weights.  A
    // repeat probe takes that prefix hit and must STILL diverge from
    // the golden transcript: reuse never masks corruption, because the
    // cached KV is the corrupt engine's own output.
    EXPECT_FALSE(router.probeShardNow(0));
    EXPECT_GE(router.stats().probePrefixHits, 1u);
}

TEST(PrefixRouter, SharedPrefixBitIdenticalThroughLiveFault)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 305);

    // Shared-prompt trace over 2 shards with the prefix cache on; an
    // unrepairable fault drains shard 0 mid-run and every displaced
    // request is replayed -- completed transcripts must equal a clean
    // solo Engine::generate at every position.
    std::vector<serve::RouterRequest> trace;
    for (std::size_t r = 0; r < 8; ++r) {
        serve::RouterRequest req;
        for (std::size_t t = 0; t < 10; ++t)
            req.prompt.push_back((3 + 17 * t) % cfg.vocabSize);
        req.prompt.push_back((7 + 5 * r) % cfg.vocabSize);
        req.decodeTokens = 5;
        req.arrivalStep = r;
        req.seed = r;
        trace.push_back(std::move(req));
    }

    serve::RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 2;
    rc.prefixCache = true;
    ExecOptions exec;
    exec.kvBlockTokens = 4;
    serve::ServingRouter router(cfg, clean, ExecPath::Reference, 8,
                                exec, rc);
    for (const serve::RouterRequest &req : trace)
        ASSERT_TRUE(router.enqueue(req).admitted());

    FaultModelParams corrupting;
    corrupting.seed = 9;
    corrupting.stuckBitRate = 0.05;
    corrupting.deadRowRate = 0.05;
    corrupting.spareRows = 0;
    serve::ShardFaultEvent event;
    event.step = 6;
    event.shard = 0;
    event.modelFaults = corrupting;
    router.scheduleFault(event);

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), trace.size());
    Engine solo(cfg, clean, ExecPath::Reference);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(outcomes[i].status, serve::RequestStatus::Completed)
            << "request " << i;
        Sampler sampler(trace[i].sampler, trace[i].seed);
        EXPECT_EQ(outcomes[i].tokens,
                  solo.generate(trace[i].prompt,
                                trace[i].decodeTokens, sampler))
            << "request " << i;
    }
    EXPECT_EQ(router.shardState(0), serve::ShardState::Drained);
    EXPECT_GT(router.stats().prefixHits, 0u);
}

} // namespace
} // namespace hnlpu
