/**
 * @file
 * Cross-request prefix cache: a radix tree over prompt token ids that
 * maps an incoming prompt to the longest already-computed KV prefix.
 *
 * Each tree node covers a token range [0, depth) of some previously
 * served prompt and holds the KvBlockPool block chain whose payload is
 * the post-RoPE K/V of exactly those positions (position-dependent
 * RoPE makes a prefix reusable only from position 0, which is what a
 * radix tree over whole prompts gives us).  Matching is
 * token-granular: a lookup that diverges mid-edge still reuses the
 * positions that matched, because the covering node's chain stores
 * them block-contiguously.
 *
 * Tenancy: the cache keeps one radix tree per tenant, keyed by
 * (tenantId, tokens).  A per-tenant LoRA adapter changes the hidden
 * state feeding every layer >= 1, so cached KV is adapter-dependent
 * from the second layer on -- the conservative (and simple) safety
 * rule is that a prefix hit never crosses tenants, even for identical
 * token sequences.  The tenant-less overloads serve tenant 0, which is
 * what every pre-tenant call site maps onto.  Eviction stays global:
 * one LRU clock across all tenants' leaves, so a hot tenant can evict
 * a cold one's prefixes under pool pressure.
 *
 * Sharing contract (see kv_block_pool.hh): every block a node lists is
 * referenced by that node, so indexed KV can never be freed or
 * overwritten under a reader -- a sequence that appends into a shared
 * tail block copies-on-write instead.  Eviction is LRU over leaves,
 * driven by a deterministic monotonic use tick (never wall clock), so
 * runs replay bit-identically; it triggers on pool budget pressure
 * (KvBlockPool::Evictor) and only ever drops tree references --
 * in-flight sequences keep their pins.
 *
 * Thread safety: all public operations take one internal mutex, so
 * front-end threads can look up prefixes while another thread's
 * allocation forces eviction.  Lock order is PrefixCache -> pool; the
 * pool never calls reclaimBlocks() with its own lock held.
 */

#ifndef HNLPU_XFORMER_PREFIX_CACHE_HH
#define HNLPU_XFORMER_PREFIX_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "xformer/kv_block_pool.hh"
#include "xformer/kv_cache.hh"

namespace hnlpu {

/** Radix-tree prefix index over one KvBlockPool. */
class PrefixCache : public KvBlockPool::Evictor
{
  public:
    /**
     * @param pool the block pool the indexed caches live in
     * @param sink optional observability wiring (prefix.* counters,
     *        matched-token histogram, serve.prefix_lookup spans)
     */
    explicit PrefixCache(std::shared_ptr<KvBlockPool> pool,
                         const obs::Sink *sink = nullptr);
    ~PrefixCache() override;

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /** Result of a lookup: a pinned chain covering matchedTokens. */
    struct Match
    {
        std::size_t matchedTokens = 0;
        /**
         * ceil(matchedTokens / blockTokens) blocks, each carrying one
         * reference taken on the caller's behalf.  Hand them to
         * KvCache::adoptPrefix, which assumes ownership of the pins.
         */
        std::vector<KvBlockId> chain;
    };

    /**
     * Longest cached prefix of @p prompt within @p tenant's tree,
     * clamped to @p max_tokens (serving clamps to prompt size - 1 so at
     * least one prompt token is always forwarded to produce first-token
     * logits).  A tenant with no tree yet is a plain miss.
     */
    Match lookup(std::size_t tenant,
                 const std::vector<std::size_t> &prompt,
                 std::size_t max_tokens);

    /**
     * Index @p cache's first @p prompt.size() positions under the
     * prompt's token path in @p tenant's tree.  The cache must hold at
     * least the full prompt; the tree takes its own references on the
     * chain blocks and marks them shared in the cache so later decode
     * appends copy-on-write.  A prompt already fully indexed only
     * refreshes recency.
     */
    void insert(std::size_t tenant,
                const std::vector<std::size_t> &prompt, KvCache &cache);

    /**
     * Drop every cached prefix (weights changed: a repaired shard must
     * never serve KV computed by its faulted predecessor).
     */
    void clear();

    /** KvBlockPool::Evictor: drop the LRU leaf; false when empty. */
    bool reclaimBlocks() override;

    // Introspection (tests, stats aggregation).
    std::size_t nodeCount() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;
    const std::shared_ptr<KvBlockPool> &pool() const { return pool_; }

  private:
    struct Node
    {
        /** Tokens on the edge from the parent. */
        std::vector<std::size_t> edge;
        /** Prompt tokens covered from the root: [0, depth). */
        std::size_t depth = 0;
        /**
         * Block chain covering [0, depth): ceil(depth / blockTokens)
         * blocks, one tree-owned reference each.
         */
        std::vector<KvBlockId> chain;
        std::map<std::size_t, std::unique_ptr<Node>> children;
        Node *parent = nullptr;
        /** Deterministic LRU stamp (monotonic op tick). */
        std::uint64_t lastUse = 0;
    };

    /** Ref @p node's chain blocks (tree ownership). */
    void refChain(const std::vector<KvBlockId> &chain);
    void unrefChainOf(Node &node);
    /** Recursively release a detached subtree's references. */
    void releaseSubtree(Node &node);
    /** The least-recently-used leaf across all tenants' trees, or null
     *  when every tree is empty. */
    Node *lruLeaf();
    void touchPath(Node *node, std::uint64_t tick);
    std::size_t blocksFor(std::size_t tokens) const;
    void updateGauges();

    std::shared_ptr<KvBlockPool> pool_;

    mutable std::mutex mutex_;
    /**
     * One radix root per tenant (std::map: node addresses are stable
     * across insertions, and iteration order -- tenant ascending -- is
     * the deterministic LRU tie-break).  Roots persist once created;
     * they own no blocks, so an empty tenant tree costs one map entry.
     */
    std::map<std::size_t, Node> roots_;
    std::uint64_t tick_ = 0;
    std::size_t nodes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    // Resolved once; null when no sink / facility disabled.
    obs::Counter *hitCounter_ = nullptr;
    obs::Counter *missCounter_ = nullptr;
    obs::Counter *evictionCounter_ = nullptr;
    obs::Gauge *blocksLiveGauge_ = nullptr;
    obs::LatencyHistogram *matchedHist_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_PREFIX_CACHE_HH
