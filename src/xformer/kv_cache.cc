#include "xformer/kv_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hnlpu {

KvCache::KvCache(std::shared_ptr<KvBlockPool> pool,
                 std::size_t max_tokens_hint)
    : pool_(std::move(pool))
{
    hnlpu_assert(pool_ != nullptr, "KvCache needs a block pool");
    if (max_tokens_hint > 0) {
        const std::size_t B = pool_->config().blockTokens;
        const std::size_t nblocks = (max_tokens_hint + B - 1) / B;
        blockIds_.reserve(nblocks);
        blockPtrs_.reserve(nblocks);
        owned_.reserve(nblocks);
    }
}

KvCache::KvCache(std::size_t layers, std::size_t kv_heads,
                 std::size_t head_dim, std::size_t max_tokens_hint)
    : KvCache(
          [&] {
              hnlpu_assert(layers > 0 && kv_heads > 0 && head_dim > 0,
                           "bad KV cache shape");
              KvPoolConfig cfg;
              cfg.layers = layers;
              cfg.kvHeads = kv_heads;
              cfg.headDim = head_dim;
              return std::make_shared<KvBlockPool>(cfg);
          }(),
          max_tokens_hint)
{
}

KvCache::~KvCache() { release(); }

KvCache::KvCache(KvCache &&other) noexcept
    : pool_(std::move(other.pool_)), length_(other.length_),
      nextLayer_(other.nextLayer_),
      blockIds_(std::move(other.blockIds_)),
      blockPtrs_(std::move(other.blockPtrs_)),
      owned_(std::move(other.owned_))
{
    other.length_ = 0;
    other.nextLayer_ = 0;
    other.blockIds_.clear();
    other.blockPtrs_.clear();
    other.owned_.clear();
}

KvCache &
KvCache::operator=(KvCache &&other) noexcept
{
    if (this != &other) {
        release();
        pool_ = std::move(other.pool_);
        length_ = other.length_;
        nextLayer_ = other.nextLayer_;
        blockIds_ = std::move(other.blockIds_);
        blockPtrs_ = std::move(other.blockPtrs_);
        owned_ = std::move(other.owned_);
        other.length_ = 0;
        other.nextLayer_ = 0;
        other.blockIds_.clear();
        other.blockPtrs_.clear();
        other.owned_.clear();
    }
    return *this;
}

void
KvCache::release()
{
    if (pool_ != nullptr) {
        for (KvBlockId id : blockIds_)
            pool_->unref(id);
    }
    blockIds_.clear();
    blockPtrs_.clear();
    owned_.clear();
    length_ = 0;
    nextLayer_ = 0;
}

void
KvCache::ensureWritableTail(std::size_t next_layer)
{
    const KvPoolConfig &cfg = pool_->config();
    const std::size_t B = cfg.blockTokens;
    const std::size_t b = length_ / B;
    if (b == blockIds_.size()) {
        // Token starts a new block.
        const KvBlockId id = pool_->allocate();
        blockIds_.push_back(id);
        blockPtrs_.push_back(pool_->blockData(id));
        owned_.push_back(true);
        return;
    }
    hnlpu_assert(b == blockIds_.size() - 1,
                 "KV cache appends past a non-tail block");
    if (owned_[b])
        return;
    if (pool_->refCount(blockIds_[b]) == 1) {
        // Sole holder: the block is unreachable by anyone else (the
        // prefix tree references every block it indexes), so claim it
        // and write in place.
        owned_[b] = true;
        return;
    }
    // Copy-on-write: the tail block is shared with other sequences or
    // the prefix tree.  Copy the token span this cache has claimed --
    // complete tokens [b*B, length_) plus the first next_layer layers
    // of the in-flight token -- into a fresh block and drop our
    // reference to the shared one.
    const KvBlockId fresh = pool_->allocate();
    double *dst = pool_->blockData(fresh);
    const double *src = blockPtrs_[b];
    const std::size_t full = length_ - b * B;
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        const std::size_t n = full + (l < next_layer ? 1 : 0);
        if (n == 0)
            continue;
        const std::size_t span = n * cfg.headDim;
        for (std::size_t h = 0; h < cfg.kvHeads; ++h) {
            const std::size_t ko = pool_->keyOffset(l, h, 0);
            const std::size_t vo = pool_->valueOffset(l, h, 0);
            std::copy(src + ko, src + ko + span, dst + ko);
            std::copy(src + vo, src + vo + span, dst + vo);
        }
    }
    pool_->unref(blockIds_[b]);
    blockIds_[b] = fresh;
    blockPtrs_[b] = dst;
    owned_[b] = true;
}

void
KvCache::appendFlat(std::size_t layer, const Vec &k_flat,
                    const Vec &v_flat)
{
    const KvPoolConfig &cfg = pool_->config();
    hnlpu_assert(layer < cfg.layers, "layer out of range");
    hnlpu_assert(k_flat.size() == cfg.kvHeads * cfg.headDim &&
                     v_flat.size() == cfg.kvHeads * cfg.headDim,
                 "flat K/V projection size mismatch");
    // Layers must append in order 0..L-1 for each token; length_
    // advances when the last layer lands.
    hnlpu_assert(layer >= nextLayer_,
                 "KV append out of order: layer ", layer, " holds ",
                 length_ + 1, " tokens, cache length is ", length_);
    hnlpu_assert(layer <= nextLayer_, "KV append skipped layer ",
                 nextLayer_, " for token ", length_);
    ensureWritableTail(nextLayer_);
    const std::size_t tok = length_ % cfg.blockTokens;
    double *blk = blockPtrs_.back();
    for (std::size_t h = 0; h < cfg.kvHeads; ++h) {
        const double *k = k_flat.data() + h * cfg.headDim;
        const double *v = v_flat.data() + h * cfg.headDim;
        std::copy(k, k + cfg.headDim,
                  blk + pool_->keyOffset(layer, h, tok));
        std::copy(v, v + cfg.headDim,
                  blk + pool_->valueOffset(layer, h, tok));
    }
    if (++nextLayer_ == cfg.layers) {
        nextLayer_ = 0;
        ++length_;
    }
}

void
KvCache::adoptPrefix(const std::vector<KvBlockId> &chain,
                     std::size_t tokens)
{
    hnlpu_assert(length_ == 0 && nextLayer_ == 0 && blockIds_.empty(),
                 "adoptPrefix requires an empty cache");
    hnlpu_assert(tokens > 0, "adoptPrefix needs at least one token");
    const std::size_t B = pool_->config().blockTokens;
    hnlpu_assert(chain.size() == (tokens + B - 1) / B,
                 "adoptPrefix chain/token count mismatch: ",
                 chain.size(), " blocks for ", tokens, " tokens");
    blockIds_ = chain;
    blockPtrs_.resize(chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i)
        blockPtrs_[i] = pool_->blockData(chain[i]);
    owned_.assign(chain.size(), false);
    length_ = tokens;
}

void
KvCache::markBlocksShared(std::size_t blocks)
{
    const std::size_t n = std::min(blocks, owned_.size());
    for (std::size_t i = 0; i < n; ++i)
        owned_[i] = false;
}

} // namespace hnlpu
