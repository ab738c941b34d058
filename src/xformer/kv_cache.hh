/**
 * @file
 * Per-sequence view over the paged KV block pool.
 *
 * Stores post-RoPE keys and values per layer, paged into fixed-size
 * token blocks owned by a shared KvBlockPool (kv_block_pool.hh).  A
 * cache is a list of block references plus a length; several caches --
 * and the radix-tree prefix cache -- may reference the same blocks, so
 * common prompt prefixes are cached once across requests.
 *
 * Sharing protocol:
 *  - A block referenced by more than one holder is immutable.
 *    Appending a token into such a block copies the claimed token span
 *    into a fresh block first (copy-on-write), so a writer can never
 *    perturb another sequence's (or the prefix tree's) view.
 *  - A block whose refcount is 1 is reachable only through this cache
 *    (the prefix tree holds a reference to every block it indexes, so
 *    an unshared block cannot be discovered or pinned by anyone else).
 *    Writing it in place is therefore race-free without locking.
 *
 * Pointers returned by key()/value() stay valid for the pool's
 * lifetime by construction (blocks never move); the old
 * reserveTokens() capacity-hint contract is gone.
 *
 * The cycle-level memory system (src/mem) models the physical
 * buffer/HBM behaviour; this class is the functional counterpart used
 * during token generation.
 */

#ifndef HNLPU_XFORMER_KV_CACHE_HH
#define HNLPU_XFORMER_KV_CACHE_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "xformer/kv_block_pool.hh"
#include "xformer/tensor.hh"

namespace hnlpu {

/** KV storage for one sequence across all layers. */
class KvCache
{
  public:
    /**
     * View over a shared pool (the serving path: Engine::makeCache
     * binds the engine's pool so prefixes can be shared).
     *
     * @param max_tokens_hint expected sequence length; reserves block
     *        bookkeeping capacity only -- reference stability no
     *        longer depends on it.
     */
    explicit KvCache(std::shared_ptr<KvBlockPool> pool,
                     std::size_t max_tokens_hint = 0);

    /**
     * Standalone cache with a private, unbounded pool of the given
     * shape (tests and single-sequence tools).
     */
    KvCache(std::size_t layers, std::size_t kv_heads,
            std::size_t head_dim, std::size_t max_tokens_hint = 0);

    ~KvCache();

    KvCache(KvCache &&other) noexcept;
    KvCache &operator=(KvCache &&other) noexcept;
    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;

    /**
     * Append one token's keys/values for a layer from flat projection
     * rows (kvHeads * headDim doubles each, head-major, post-RoPE),
     * written straight into block storage with no per-head vector
     * materialization.  Layers append in order 0..layers-1 per token.
     */
    void appendFlat(std::size_t layer, const Vec &k_flat,
                    const Vec &v_flat);

    /**
     * Cached key of token @p pos, head @p head, layer @p layer:
     * headDim() doubles, stable for the pool's lifetime.  Inline:
     * attention calls these once per cached position.
     */
    const double *key(std::size_t layer, std::size_t head,
                      std::size_t pos) const
    {
        checkPosition(layer, head, pos);
        const std::size_t B = pool_->config().blockTokens;
        return blockPtrs_[pos / B] + pool_->keyOffset(layer, head, pos % B);
    }
    const double *value(std::size_t layer, std::size_t head,
                        std::size_t pos) const
    {
        checkPosition(layer, head, pos);
        const std::size_t B = pool_->config().blockTokens;
        return blockPtrs_[pos / B] +
               pool_->valueOffset(layer, head, pos % B);
    }

    /** Tokens currently cached (uniform across layers). */
    std::size_t length() const { return length_; }

    std::size_t kvHeads() const { return pool_->config().kvHeads; }
    std::size_t headDim() const { return pool_->config().headDim; }

    /**
     * Adopt an already-pinned block chain as this cache's first
     * @p tokens positions (prefix-cache hit: prefill is skipped for
     * them).  The cache must be empty; it takes ownership of exactly
     * one reference per chain block (the pin the lookup took) and
     * releases them on destruction.
     */
    void adoptPrefix(const std::vector<KvBlockId> &chain,
                     std::size_t tokens);

    /**
     * Mark the first @p blocks blocks as externally referenced (the
     * prefix tree just indexed them): later appends into them must
     * copy-on-write even if the extra reference is dropped afterwards.
     */
    void markBlocksShared(std::size_t blocks);

    std::size_t blockCount() const { return blockIds_.size(); }
    KvBlockId blockId(std::size_t i) const { return blockIds_[i]; }

    const std::shared_ptr<KvBlockPool> &poolHandle() const
    {
        return pool_;
    }

  private:
    /** Assert that (@p layer, @p head, @p pos) is a cached entry. */
    void checkPosition(std::size_t layer, std::size_t head,
                       std::size_t pos) const
    {
        const KvPoolConfig &cfg = pool_->config();
        hnlpu_assert(layer < cfg.layers, "layer out of range");
        hnlpu_assert(head < cfg.kvHeads, "head out of range");
        hnlpu_assert(pos < length_ ||
                         (pos == length_ && layer < nextLayer_),
                     "pos out of range");
    }

    /** Release every block reference this cache owns. */
    void release();
    /**
     * Make the block holding token @p length_ writable: extend the
     * chain, claim an exclusively-held block, or copy-on-write a
     * shared one.  @p next_layer is how many layers of the in-flight
     * token are already appended (they are copied too on COW).
     */
    void ensureWritableTail(std::size_t next_layer);

    std::shared_ptr<KvBlockPool> pool_;
    std::size_t length_ = 0;
    /** Next layer expected for the in-flight token (0 = token done). */
    std::size_t nextLayer_ = 0;
    std::vector<KvBlockId> blockIds_;
    /** Cached payload pointers, parallel to blockIds_. */
    std::vector<double *> blockPtrs_;
    /**
     * owned_[i]: block i is known exclusively ours (written by us
     * after allocation/COW and not yet indexed by the prefix tree);
     * appends skip the refcount check.
     */
    std::vector<bool> owned_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_KV_CACHE_HH
