#include "xformer/engine.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "obs/json.hh"
#include "xformer/ops.hh"

namespace hnlpu {

namespace {

/** The tracer carried by @p ctx, or null when tracing is off. */
obs::Tracer *
tracerOf(const ExecContext &ctx)
{
    return ctx.sink ? ctx.sink->trace : nullptr;
}

/** {"<key>": <value>} span args; empty (free) when tracing is off. */
std::string
spanArg(const obs::Tracer *trace, const char *key, std::size_t value)
{
    if (!trace)
        return {};
    obs::JsonWriter w(0);
    w.beginObject().field(key, value).endObject();
    return w.str();
}

} // namespace

Engine::Engine(const TransformerConfig &cfg, const ModelWeights &weights,
               ExecPath path, unsigned activation_bits,
               const ExecOptions &exec)
    : cfg_(cfg), weights_(weights), path_(path),
      activationBits_(activation_bits), exec_(exec)
{
    cfg_.validate();
    hnlpu_assert(weights_.blocks.size() == cfg_.layerCount,
                 "weights/config layer mismatch");
    hnlpu_assert(exec_.threads >= 1, "ExecOptions::threads must be >= 1");
    {
        KvPoolConfig kv;
        kv.layers = cfg_.layerCount;
        kv.kvHeads = cfg_.kvHeads;
        kv.headDim = cfg_.headDim;
        kv.blockTokens = exec_.kvBlockTokens;
        kv.maxBlocks = exec_.kvPoolBlocks;
        kvPool_ = std::make_shared<KvBlockPool>(kv);
    }
    if (exec_.threads > 1) {
        pool_ = std::make_unique<ThreadPool>(exec_.threads);
        if (exec_.pinThreads)
            pool_->pinThreads();
    }
    stats_.expertHistogram.assign(cfg_.expertCount, 0);

    ctx_.path = path_;
    ctx_.activationBits = activationBits_;
    ctx_.kernel = exec_.kernel;
    ctx_.activity =
        path_ == ExecPath::Hardwired ? &stats_.hnActivity : nullptr;
    ctx_.pool = pool_.get();
    ctx_.scratch = &scratch_;
    ctx_.sink = exec_.sink;

    // With a tracer wired up, dispatched pool chunks become
    // "pool.chunk" spans on the worker threads' tracks.
    if (pool_ && exec_.sink && exec_.sink->trace) {
        poolTracer_ =
            std::make_unique<obs::PoolTaskTracer>(exec_.sink->trace);
        pool_->setObserver(poolTracer_.get());
    }
}

KvCache
Engine::makeCache(std::size_t max_tokens_hint) const
{
    return KvCache(kvPool_, max_tokens_hint);
}

Vec
Engine::forwardHidden(std::size_t token_id, KvCache &cache)
{
    return std::move(
        forwardHiddenBatch({token_id}, {&cache}, {ctx_.lora}).front());
}

std::vector<Vec>
Engine::attentionBatch(const BlockWeights &block,
                       const std::vector<Vec> &x_norms, std::size_t layer,
                       const std::vector<KvCache *> &caches,
                       const std::vector<const LoraSet *> &loras)
{
    const std::size_t batch = x_norms.size();
    const std::size_t head_dim = cfg_.headDim;
    const std::size_t group = cfg_.gqaGroupSize();
    ThreadPool *pool = pool_.get();

    // wq/wk/wv read the same x_norms: one column preparation and one
    // row pass serve all three.  The LoRA delta is applied per
    // sequence AFTER the batched frozen projection, so a column with
    // adapter A is bit-identical to a solo forward with A as the
    // engine default: the batched GEMM itself is already per-column
    // exact (Linear::forwardFused contract).
    const Linear *const qkv[] = {&block.wq, &block.wk, &block.wv};
    std::vector<Vec> qkv_flat[3];
    Linear::forwardFused(qkv, x_norms, ctx_, qkv_flat);
    std::vector<Vec> &q_flat = qkv_flat[0];
    std::vector<Vec> &k_flat = qkv_flat[1];
    const std::vector<Vec> &v_flat = qkv_flat[2];
    for (std::size_t s = 0; s < batch; ++s) {
        const LoraSet *lora = loras[s];
        if (!lora)
            continue;
        const Vec dq = lora->wq[layer].delta(x_norms[s]);
        for (std::size_t i = 0; i < q_flat[s].size(); ++i)
            q_flat[s][i] += dq[i];
    }

    // Per-sequence positions: each cache advances independently, so
    // RoPE and the causal context length are per column.  Keys are
    // rotated in place on the flat projections and appended straight
    // into paged block storage -- the decode hot path materialises no
    // per-head K/V vectors.
    std::vector<std::size_t> pos(batch);
    std::vector<std::vector<Vec>> q_heads(batch);
    for (std::size_t s = 0; s < batch; ++s) {
        pos[s] = caches[s]->length();
        q_heads[s].resize(cfg_.queryHeads);
        for (std::size_t h = 0; h < cfg_.queryHeads; ++h) {
            q_heads[s][h] = Vec(q_flat[s].begin() + h * head_dim,
                                q_flat[s].begin() + (h + 1) * head_dim);
            applyRope(q_heads[s][h], pos[s]);
        }
        for (std::size_t h = 0; h < cfg_.kvHeads; ++h)
            applyRope(k_flat[s].data() + h * head_dim, head_dim,
                      pos[s]);
        caches[s]->appendFlat(layer, k_flat[s], v_flat[s]);
    }

    // Flatten (sequence, head) across the pool: every pair reads its
    // own (now frozen) cache and writes its own disjoint attn_out
    // slice, so each sequence comes out bit-exactly as it would alone
    // and as it would serially.  The context length includes the token
    // just appended (cache.length() only advances after the last
    // layer).
    const double inv_sqrt_d = 1.0 / std::sqrt(double(head_dim));
    std::vector<Vec> attn_out(batch, Vec(cfg_.queryHeads * head_dim,
                                         0.0));
    parallelFor(pool, batch * cfg_.queryHeads,
                [&](std::size_t begin, std::size_t end) {
        for (std::size_t idx = begin; idx < end; ++idx) {
            const std::size_t s = idx / cfg_.queryHeads;
            const std::size_t h = idx % cfg_.queryHeads;
            const std::size_t kv_head = h / group;
            const std::size_t context = pos[s] + 1;
            Vec scores(context);
            for (std::size_t t = 0; t < context; ++t) {
                scores[t] =
                    dot(q_heads[s][h], caches[s]->key(layer, kv_head, t)) *
                    inv_sqrt_d;
            }
            const Vec probs = softmax(scores);
            for (std::size_t t = 0; t < context; ++t) {
                const double *v = caches[s]->value(layer, kv_head, t);
                for (std::size_t d = 0; d < head_dim; ++d)
                    attn_out[s][h * head_dim + d] += probs[t] * v[d];
            }
        }
    });
    std::vector<Vec> out = block.wo.forwardBatch(attn_out, ctx_);
    for (std::size_t s = 0; s < batch; ++s) {
        const LoraSet *lora = loras[s];
        if (!lora)
            continue;
        const Vec d_o = lora->wo[layer].delta(attn_out[s]);
        for (std::size_t i = 0; i < out[s].size(); ++i)
            out[s][i] += d_o[i];
    }
    return out;
}

std::vector<Vec>
Engine::forwardHiddenBatch(const std::vector<std::size_t> &tokens,
                           const std::vector<KvCache *> &caches,
                           const std::vector<const LoraSet *> &loras)
{
    const std::size_t batch = tokens.size();
    hnlpu_assert(caches.size() == batch,
                 "forwardTokenBatch: ", batch, " tokens vs ",
                 caches.size(), " caches");
    hnlpu_assert(loras.size() == batch,
                 "forwardTokenBatch: unresolved per-sequence loras");
    for (std::size_t s = 0; s < batch; ++s) {
        hnlpu_assert(caches[s] != nullptr, "null cache for sequence ", s);
        hnlpu_assert(tokens[s] < cfg_.vocabSize,
                     "token id out of range for sequence ", s);
        // Distinct caches: two columns appending into one cache would
        // interleave positions.  Slot counts are small, so O(B^2) is
        // fine.
        for (std::size_t t = 0; t < s; ++t) {
            hnlpu_assert(caches[t] != caches[s],
                         "sequences ", t, " and ", s,
                         " share one KV cache");
        }
    }

    std::vector<Vec> x(batch);
    for (std::size_t s = 0; s < batch; ++s)
        x[s] = weights_.embedding.row(tokens[s]);

    obs::Tracer *const trace = tracerOf(ctx_);
    for (std::size_t layer = 0; layer < cfg_.layerCount; ++layer) {
        const BlockWeights &block = weights_.blocks[layer];
        obs::ScopedSpan layer_span(trace, "engine", "engine.layer",
                                   spanArg(trace, "layer", layer));

        std::vector<Vec> attn_in(batch);
        for (std::size_t s = 0; s < batch; ++s)
            attn_in[s] = rmsNorm(x[s], block.attnNormGain);
        std::vector<Vec> attn;
        {
            obs::ScopedSpan span(trace, "engine", "engine.attention");
            attn = attentionBatch(block, attn_in, layer, caches, loras);
        }
        for (std::size_t s = 0; s < batch; ++s)
            x[s] = add(x[s], attn[s]);

        std::vector<Vec> ffn_in(batch);
        for (std::size_t s = 0; s < batch; ++s)
            ffn_in[s] = rmsNorm(x[s], block.ffnNormGain);
        std::vector<std::vector<std::size_t>> selected(batch);
        const std::vector<Vec> ffn =
            block.ffn.forwardBatch(ffn_in, ctx_, selected);
        for (std::size_t s = 0; s < batch; ++s) {
            for (std::size_t e : selected[s])
                stats_.expertHistogram[e]++;
            x[s] = add(x[s], ffn[s]);
        }
    }

    stats_.tokensProcessed += batch;
    for (std::size_t s = 0; s < batch; ++s)
        x[s] = rmsNorm(x[s], weights_.finalNormGain);
    return x;
}

std::vector<Vec>
Engine::forwardTokenBatch(const std::vector<std::size_t> &tokens,
                          const std::vector<KvCache *> &caches,
                          const std::vector<std::uint8_t> &want_logits,
                          const std::vector<const LoraSet *> &loras)
{
    const std::size_t batch = tokens.size();
    hnlpu_assert(want_logits.empty() || want_logits.size() == batch,
                 "want_logits size mismatch");
    hnlpu_assert(loras.empty() || loras.size() == batch,
                 "loras size mismatch");
    if (batch == 0)
        return {};
    // Resolve the per-sequence adapters once: an empty override means
    // every sequence runs the engine default (setLora).
    std::vector<const LoraSet *> resolved =
        loras.empty() ? std::vector<const LoraSet *>(batch, ctx_.lora)
                      : loras;
    for (const LoraSet *lora : resolved) {
        if (lora) {
            hnlpu_assert(lora->wq.size() == cfg_.layerCount &&
                             lora->wo.size() == cfg_.layerCount,
                         "per-sequence LoRA set layer count mismatch");
        }
    }
    std::vector<Vec> hidden = forwardHiddenBatch(tokens, caches,
                                                 resolved);

    // Only the sequences that asked for logits pay for the vocab-sized
    // unembedding (prefill tokens before the last skip it, exactly as
    // generate() does sequentially).
    std::vector<std::size_t> want;
    for (std::size_t s = 0; s < batch; ++s) {
        if (want_logits.empty() || want_logits[s] != 0)
            want.push_back(s);
    }
    std::vector<Vec> out(batch);
    if (want.empty())
        return out;

    std::vector<Vec> want_hidden;
    want_hidden.reserve(want.size());
    for (std::size_t s : want)
        want_hidden.push_back(std::move(hidden[s]));
    obs::Tracer *const trace = tracerOf(ctx_);
    obs::ScopedSpan span(trace, "engine", "engine.unembed",
                         spanArg(trace, "batch", want.size()));
    std::vector<Vec> logits =
        weights_.unembedding.forwardBatch(want_hidden, ctx_);
    for (std::size_t i = 0; i < want.size(); ++i)
        out[want[i]] = std::move(logits[i]);
    return out;
}

Vec
Engine::forwardToken(std::size_t token_id, KvCache &cache)
{
    return std::move(forwardTokenBatch({token_id}, {&cache}).front());
}

void
Engine::setLora(const LoraSet *lora)
{
    if (lora) {
        hnlpu_assert(lora->wq.size() == cfg_.layerCount &&
                         lora->wo.size() == cfg_.layerCount,
                     "LoRA set layer count mismatch");
    }
    ctx_.lora = lora;
}

double
Engine::scoreSequence(const std::vector<std::size_t> &tokens)
{
    hnlpu_assert(tokens.size() >= 2, "scoring needs >= 2 tokens");
    // Validate every id up front: the last token is only ever used as a
    // probs[] target index, so forwardToken's own range check would
    // never see it and an out-of-range id would read past the logits.
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        hnlpu_assert(tokens[i] < cfg_.vocabSize,
                     "scoreSequence token ", i, " id ", tokens[i],
                     " out of vocab range ", cfg_.vocabSize);
    }
    KvCache cache = makeCache(tokens.size());
    double total_logprob = 0.0;
    // Every forward here produces logits that ARE consumed (scoring the
    // next token), so unlike generate()'s prefill there is no unused
    // unembedding GEMV to elide.  Scoring uses log-softmax directly:
    // log p = logit - logsumexp(logits), which matches
    // log(softmax(logits)[t]) exactly in normal range but cannot
    // underflow to -inf (no 1e-300 clamp) however large the vocabulary
    // or extreme the logit gap.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Vec logits = forwardToken(tokens[i], cache);
        total_logprob += logits[tokens[i + 1]] - logSumExp(logits);
    }
    return total_logprob;
}

Vec
Engine::embedSequence(const std::vector<std::size_t> &tokens)
{
    hnlpu_assert(!tokens.empty(), "embedding needs tokens");
    KvCache cache = makeCache(tokens.size());
    Vec hidden;
    for (std::size_t token : tokens)
        hidden = forwardHidden(token, cache);
    return hidden;
}

std::vector<std::size_t>
Engine::generate(const std::vector<std::size_t> &prompt,
                 std::size_t decode_steps, Sampler &sampler)
{
    hnlpu_assert(!prompt.empty(),
                 "generate needs a non-empty prompt: there is no "
                 "position to decode from otherwise");
    // Zero decode steps is a legal no-op: nothing would consume the
    // prefill, so skip the model entirely (stats stay untouched).
    if (decode_steps == 0)
        return {};
    KvCache cache = makeCache(prompt.size() + decode_steps);

    // Prefill: only the last prompt token's logits feed the sampler, so
    // every earlier token skips the vocab-sized unembedding GEMV (by
    // far the largest projection) and just populates the KV cache.
    for (std::size_t i = 0; i + 1 < prompt.size(); ++i)
        forwardHidden(prompt[i], cache);
    Vec logits = forwardToken(prompt.back(), cache);

    std::vector<std::size_t> generated;
    generated.reserve(decode_steps);
    for (std::size_t step = 0; step < decode_steps; ++step) {
        const std::size_t next = sampler.sample(logits);
        generated.push_back(next);
        if (step + 1 < decode_steps)
            logits = forwardToken(next, cache);
    }
    return generated;
}

} // namespace hnlpu
