#include "dataflow/distributed.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "xformer/ops.hh"

namespace hnlpu {

double
CommVolume::total() const
{
    return queryReduce + kvCollect + scoreStats + attnCombine +
           xoReduce + xoGather + moeReduce + logitGather;
}

/** Per-chip weight shards for every layer. */
struct DistributedEngine::ChipShard
{
    // Indexed by layer.
    std::vector<Linear> wq; //!< (qProj/cols) x (hidden/rows)
    std::vector<Linear> wk;
    std::vector<Linear> wv;
    std::vector<Linear> wo; //!< (hidden/rows) x (qProj/cols)
    std::vector<std::vector<Expert>> experts; //!< owned experts
    std::vector<std::vector<std::size_t>> expertIds;
    Linear unembed; //!< (vocab/chips) x hidden

    ChipShard() : unembed({}, 0, 0) {}
};

/** All chips' shards (pimpl so the header stays light). */
struct DistributedEngine::ShardSet
{
    std::vector<ChipShard> chips;
};

DistributedEngine::~DistributedEngine() = default;
DistributedEngine::DistributedEngine(DistributedEngine &&) noexcept =
    default;

DistributedEngine::DistributedEngine(const TransformerConfig &cfg,
                                     const ModelWeights &weights,
                                     std::size_t grid_rows,
                                     std::size_t grid_cols,
                                     ExecPath path,
                                     unsigned activation_bits,
                                     HnKernel kernel)
    : cfg_(cfg), weights_(weights), rows_(grid_rows), cols_(grid_cols),
      path_(path), activationBits_(activation_bits), kernel_(kernel),
      partition_(makePartition(cfg, grid_rows, grid_cols))
{
    cfg_.validate();
    hnlpu_assert(cfg_.vocabSize % chipCount() == 0,
                 "vocab must tile over chips for the logit shards");
    const std::size_t qs = cfg_.qProjectionDim() / cols_;
    const std::size_t kvs = cfg_.kvProjectionDim() / cols_;
    const std::size_t vocab_s = cfg_.vocabSize / chipCount();
    const std::size_t experts_per_chip =
        ceilDiv(cfg_.expertCount, chipCount());

    // NOTE on indexing: the paper splits the hidden dimension over the
    // chips *within a column* (four (1,720) slices) and the projection
    // outputs over the *columns*.  We therefore use the chip's row for
    // the input (hidden) slice and its column for the output slice.
    const std::size_t hidden_slice = cfg_.hiddenSize / rows_;

    shards_ = std::make_unique<ShardSet>();
    shards_->chips.resize(chipCount());
    for (std::size_t chip = 0; chip < chipCount(); ++chip) {
        const std::size_t row = chip / cols_;
        const std::size_t col = chip % cols_;
        ChipShard &shard = shards_->chips[chip];
        shard.wq.reserve(cfg_.layerCount);
        for (std::size_t l = 0; l < cfg_.layerCount; ++l) {
            const BlockWeights &b = weights_.blocks[l];
            shard.wq.push_back(b.wq.slice(col * qs, qs,
                                          row * hidden_slice,
                                          hidden_slice));
            shard.wk.push_back(b.wk.slice(col * kvs, kvs,
                                          row * hidden_slice,
                                          hidden_slice));
            shard.wv.push_back(b.wv.slice(col * kvs, kvs,
                                          row * hidden_slice,
                                          hidden_slice));
            // Wo: outputs (hidden) split over the chip's row slice,
            // inputs (attention heads) split over the column group.
            shard.wo.push_back(b.wo.slice(row * hidden_slice,
                                          hidden_slice, col * qs, qs));

            std::vector<Expert> owned;
            std::vector<std::size_t> ids;
            for (std::size_t e = chip * experts_per_chip;
                 e < std::min<std::size_t>((chip + 1) * experts_per_chip,
                                           cfg_.expertCount);
                 ++e) {
                const Expert &src = b.ffn.expert(e);
                owned.push_back(Expert{src.up, src.gate, src.down});
                ids.push_back(e);
            }
            shard.experts.push_back(std::move(owned));
            shard.expertIds.push_back(std::move(ids));
        }
        shard.unembed = weights_.unembedding.slice(chip * vocab_s,
                                                   vocab_s, 0,
                                                   cfg_.hiddenSize);
    }
}

DistributedEngine::Cache::Cache(std::size_t layers, std::size_t rows,
                                std::size_t kv_heads,
                                std::size_t head_dim)
    : rows_(rows), layers_(layers),
      keys_(layers, std::vector<std::vector<Vec>>(kv_heads)),
      values_(layers, std::vector<std::vector<Vec>>(kv_heads))
{
    hnlpu_assert(head_dim > 0, "bad head dim");
}

void
DistributedEngine::Cache::append(std::size_t layer, std::size_t pos,
                                 const std::vector<Vec> &keys,
                                 const std::vector<Vec> &values)
{
    hnlpu_assert(layer < keys_.size(), "layer range");
    for (std::size_t h = 0; h < keys.size(); ++h) {
        keys_[layer][h].push_back(keys[h]);
        values_[layer][h].push_back(values[h]);
    }
    if (layer == layers_ - 1)
        ++length_;
    (void)pos;
}

std::vector<std::size_t>
DistributedEngine::Cache::ownedPositions(std::size_t row) const
{
    std::vector<std::size_t> owned;
    const std::size_t cached = keys_[0][0].size();
    for (std::size_t pos = row; pos < cached; pos += rows_)
        owned.push_back(pos);
    return owned;
}

const Vec &
DistributedEngine::Cache::key(std::size_t layer, std::size_t head,
                              std::size_t pos) const
{
    return keys_[layer][head][pos];
}

const Vec &
DistributedEngine::Cache::value(std::size_t layer, std::size_t head,
                                std::size_t pos) const
{
    return values_[layer][head][pos];
}

DistributedEngine::Cache
DistributedEngine::makeCache() const
{
    return Cache(cfg_.layerCount, rows_, cfg_.kvHeads, cfg_.headDim);
}

ExecContext
DistributedEngine::shardContext()
{
    ExecContext ctx;
    ctx.path = path_;
    ctx.activationBits = activationBits_;
    ctx.kernel = kernel_;
    ctx.scratch = &scratch_;
    return ctx;
}

Vec
DistributedEngine::attention(std::size_t layer, const Vec &x_norm,
                             Cache &cache)
{
    const ExecContext ctx = shardContext();
    const std::size_t hidden_slice = cfg_.hiddenSize / rows_;
    const std::size_t qs = cfg_.qProjectionDim() / cols_;
    const std::size_t kvs = cfg_.kvProjectionDim() / cols_;
    const std::size_t head_dim = cfg_.headDim;
    const std::size_t group = cfg_.gqaGroupSize();
    const std::size_t pos = cache.length();

    // -- QKV projection: per-chip partial sums + column all-reduce ------
    // q_cols[c] is the column group's completed Q slice (replicated on
    // the column's chips after the all-reduce).  Each chip prepares its
    // input slice once for its three projection shards.
    std::vector<Vec> q_cols(cols_), k_cols(cols_), v_cols(cols_);
    std::vector<Vec> qkv[3];
    for (std::size_t c = 0; c < cols_; ++c) {
        Vec q(qs, 0.0), k(kvs, 0.0), v(kvs, 0.0);
        for (std::size_t r = 0; r < rows_; ++r) {
            const ChipShard &shard = shards_->chips[r * cols_ + c];
            const std::vector<Vec> x_slice{
                Vec(x_norm.begin() + r * hidden_slice,
                    x_norm.begin() + (r + 1) * hidden_slice)};
            const Linear *const projections[] = {
                &shard.wq[layer], &shard.wk[layer], &shard.wv[layer]};
            Linear::forwardFused(projections, x_slice, ctx, qkv);
            const Vec &qp = qkv[0][0];
            const Vec &kp = qkv[1][0];
            const Vec &vp = qkv[2][0];
            for (std::size_t i = 0; i < qs; ++i)
                q[i] += qp[i];
            for (std::size_t i = 0; i < kvs; ++i) {
                k[i] += kp[i];
                v[i] += vp[i];
            }
        }
        comm_.queryReduce += double(qs) * double(rows_ - 1);
        comm_.kvCollect += 2.0 * double(kvs) * double(rows_ - 1);
        q_cols[c] = std::move(q);
        k_cols[c] = std::move(k);
        v_cols[c] = std::move(v);
    }

    // Split into heads, apply RoPE, append to the distributed cache
    // (the owner chip is pos mod rows; storage is logically shared).
    std::vector<Vec> q_heads(cfg_.queryHeads);
    for (std::size_t h = 0; h < cfg_.queryHeads; ++h) {
        const std::size_t c = h / (cfg_.queryHeads / cols_);
        const std::size_t local = h % (cfg_.queryHeads / cols_);
        q_heads[h] = Vec(q_cols[c].begin() + local * head_dim,
                         q_cols[c].begin() + (local + 1) * head_dim);
        applyRope(q_heads[h], pos);
    }
    std::vector<Vec> k_heads(cfg_.kvHeads), v_heads(cfg_.kvHeads);
    for (std::size_t h = 0; h < cfg_.kvHeads; ++h) {
        const std::size_t c = h / (cfg_.kvHeads / cols_);
        const std::size_t local = h % (cfg_.kvHeads / cols_);
        k_heads[h] = Vec(k_cols[c].begin() + local * head_dim,
                         k_cols[c].begin() + (local + 1) * head_dim);
        applyRope(k_heads[h], pos);
        v_heads[h] = Vec(v_cols[c].begin() + local * head_dim,
                         v_cols[c].begin() + (local + 1) * head_dim);
    }
    cache.append(layer, pos, k_heads, v_heads);
    const std::size_t context = pos + 1;

    // -- distributed attention: FlashAttention-style combination --------
    const double inv_sqrt_d = 1.0 / std::sqrt(double(head_dim));
    Vec attn_out(cfg_.queryHeads * head_dim, 0.0);
    for (std::size_t h = 0; h < cfg_.queryHeads; ++h) {
        const std::size_t kv_head = h / group;

        // Phase 1: per-chip local maxima over owned positions, then a
        // column max-reduce (statistics only on the wire).
        double global_max = -1e300;
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t t = r; t < context; t += rows_) {
                const double s =
                    dot(q_heads[h], cache.key(layer, kv_head, t)) *
                    inv_sqrt_d;
                global_max = std::max(global_max, s);
            }
        }
        comm_.scoreStats += double(rows_ - 1);

        // Phase 2: per-chip exp-sums and weighted V partials, summed
        // by a column all-reduce.
        double sum_exp = 0.0;
        Vec weighted(head_dim, 0.0);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t t = r; t < context; t += rows_) {
                const double s =
                    dot(q_heads[h], cache.key(layer, kv_head, t)) *
                    inv_sqrt_d;
                const double w = std::exp(s - global_max);
                sum_exp += w;
                const Vec &v = cache.value(layer, kv_head, t);
                for (std::size_t d = 0; d < head_dim; ++d)
                    weighted[d] += w * v[d];
            }
        }
        comm_.attnCombine +=
            double(head_dim + 1) * double(rows_ - 1);

        for (std::size_t d = 0; d < head_dim; ++d)
            attn_out[h * head_dim + d] = weighted[d] / sum_exp;
    }

    // -- output projection: row all-reduce + column all-gather ----------
    Vec xo(cfg_.hiddenSize, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        Vec slice(hidden_slice, 0.0);
        for (std::size_t c = 0; c < cols_; ++c) {
            const ChipShard &shard = shards_->chips[r * cols_ + c];
            const Vec attn_col(attn_out.begin() + c * qs,
                               attn_out.begin() + (c + 1) * qs);
            const Vec partial = shard.wo[layer].forward(attn_col, ctx);
            for (std::size_t i = 0; i < hidden_slice; ++i)
                slice[i] += partial[i];
        }
        comm_.xoReduce += double(hidden_slice) * double(cols_ - 1);
        std::copy(slice.begin(), slice.end(),
                  xo.begin() + r * hidden_slice);
    }
    comm_.xoGather += double(cfg_.hiddenSize) * double(rows_ - 1);
    return xo;
}

Vec
DistributedEngine::feedForward(std::size_t layer, const Vec &x_norm)
{
    // Router replicated on every chip: identical result everywhere.
    const BlockWeights &block = weights_.blocks[layer];
    std::vector<std::size_t> selected;
    Vec gate_weights;
    if (cfg_.expertCount > 1) {
        const Vec logits = block.ffn.router().forward(
            x_norm, ExecContext{ExecPath::Reference});
        selected = topK(logits, cfg_.activeExperts);
        Vec sel_logits(selected.size());
        for (std::size_t i = 0; i < selected.size(); ++i)
            sel_logits[i] = logits[selected[i]];
        gate_weights = softmax(sel_logits);
    } else {
        selected = {0};
        gate_weights = {1.0};
    }

    // Every chip evaluates the active experts it owns, up and gate off
    // one preparation of x_norm; the grid all-reduce combines the
    // weighted partial outputs.
    const ExecContext ctx = shardContext();
    const std::vector<Vec> xs{x_norm};
    std::vector<Vec> up_gate[2];
    Vec out(cfg_.hiddenSize, 0.0);
    for (std::size_t chip = 0; chip < chipCount(); ++chip) {
        const ChipShard &shard = shards_->chips[chip];
        for (std::size_t k = 0; k < selected.size(); ++k) {
            const auto &ids = shard.expertIds[layer];
            const auto it = std::find(ids.begin(), ids.end(),
                                      selected[k]);
            if (it == ids.end())
                continue;
            const Expert &ex =
                shard.experts[layer][std::size_t(it - ids.begin())];
            const Linear *const projections[] = {&ex.up, &ex.gate};
            Linear::forwardFused(projections, xs, ctx, up_gate);
            const Vec act = swiGlu(up_gate[1][0], up_gate[0][0]);
            const Vec down = ex.down.forward(act, ctx);
            for (std::size_t d = 0; d < out.size(); ++d)
                out[d] += gate_weights[k] * down[d];
        }
    }
    // Row phase + column phase of the grid all-reduce.
    comm_.moeReduce += double(cfg_.hiddenSize) *
                       double((rows_ - 1) + (cols_ - 1));
    return out;
}

Vec
DistributedEngine::forwardToken(std::size_t token_id, Cache &cache)
{
    hnlpu_assert(token_id < cfg_.vocabSize, "token id range");
    Vec x = weights_.embedding.row(token_id);

    for (std::size_t layer = 0; layer < cfg_.layerCount; ++layer) {
        const BlockWeights &block = weights_.blocks[layer];
        const Vec attn_in = rmsNorm(x, block.attnNormGain);
        const Vec attn = attention(layer, attn_in, cache);
        x = add(x, attn);

        const Vec ffn_in = rmsNorm(x, block.ffnNormGain);
        const Vec ffn = feedForward(layer, ffn_in);
        x = add(x, ffn);
    }

    const Vec final_norm = rmsNorm(x, weights_.finalNormGain);

    // Row-partitioned unembedding + logit all-gather.
    const ExecContext ctx = shardContext();
    const std::size_t vocab_s = cfg_.vocabSize / chipCount();
    Vec logits(cfg_.vocabSize);
    for (std::size_t chip = 0; chip < chipCount(); ++chip) {
        const Vec shard_logits =
            shards_->chips[chip].unembed.forward(final_norm, ctx);
        std::copy(shard_logits.begin(), shard_logits.end(),
                  logits.begin() + chip * vocab_s);
    }
    comm_.logitGather += double(cfg_.vocabSize);
    return logits;
}

} // namespace hnlpu
