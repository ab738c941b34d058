/**
 * @file
 * The functional inference engine: token ids in, token ids out.
 *
 * This is the behavioural specification of the HNLPU: embedding lookup,
 * N transformer blocks (RMSNorm -> GQA attention -> residual -> RMSNorm
 * -> MoE SwiGLU FFN -> residual), final norm, unembedding, sampling
 * (paper Fig. 10).  Every weight-bearing projection can run on the
 * reference float path or the bit-serial Hardwired-Neuron path; the
 * integration tests pin both paths to each other.
 */

#ifndef HNLPU_XFORMER_ENGINE_HH
#define HNLPU_XFORMER_ENGINE_HH

#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "model/transformer_config.hh"
#include "obs/trace.hh"
#include "xformer/kv_cache.hh"
#include "xformer/lora.hh"
#include "xformer/sampler.hh"
#include "xformer/weights.hh"

namespace hnlpu {

/**
 * Host-side execution options.
 *
 * threads > 1 makes the engine own a ThreadPool and run its hot paths
 * data-parallel: row-partitioned GEMV in every Linear (both paths),
 * the MoE expert stage as (expert, row-tile) tasks over the rows of
 * every active expert, and per-(sequence, head) attention.  All
 * partitioning is disjoint-output, so results are bit-exactly
 * independent of the thread count (tests/test_parallel.cc pins this).
 */
struct ExecOptions
{
    std::size_t threads = 1; //!< total parallelism incl. calling thread
    /**
     * Hardwired-path GEMV kernel.  Packed (default) compiles region
     * masks and serialises each input into bit planes once for every
     * projection that reads it (wq/wk/wv, an expert's up and gate); Simd
     * takes each row's exact dot product with an int8 image of 2*w
     * built at programming time (hn/hn_simd.hh; Packed for
     * activations wider than 16 bits); Scalar is the original per-row
     * emulation.  Bit-identical outputs and activity counters in all
     * cases (tests/test_hn_kernel.cc).
     */
    HnKernel kernel = HnKernel::Packed;
    /**
     * Pin the pool's threads round-robin across the online CPUs (Linux
     * only; no-op elsewhere and with threads <= 1).  Benchmarks enable
     * this so scaling numbers measure the kernels rather than the
     * scheduler's migration choices; servers sharing the machine
     * should leave it off.
     */
    bool pinThreads = false;
    /**
     * Observability wiring (metrics registry and/or tracer); null
     * disables both.  The sink must outlive the engine.  Observability
     * never changes decoded tokens: spans/counters only read the
     * computation, and disabled mode costs one pointer test per site.
     */
    const obs::Sink *sink = nullptr;
    /**
     * Token positions per paged-KV block (the sharing and
     * copy-on-write granularity of the engine's KvBlockPool; see
     * kv_block_pool.hh).  Smaller blocks share shorter prefixes at the
     * cost of more bookkeeping.
     */
    std::size_t kvBlockTokens = 16;
    /**
     * KV pool budget in blocks; 0 grows without bound.  Under budget
     * pressure the prefix cache LRU-evicts cached prefixes; a budget
     * smaller than the active sequences' working set is fatal.
     */
    std::size_t kvPoolBlocks = 0;
};

/** Aggregate statistics of a generation run. */
struct EngineStats
{
    std::size_t tokensProcessed = 0;   //!< prefill + decoded tokens
    HnActivity hnActivity;             //!< hardwired path only
    std::vector<std::size_t> expertHistogram; //!< routing counts
};

/** Functional decoder-only LLM executor. */
class Engine
{
  public:
    /** The engine borrows the weights; they must outlive it. */
    Engine(const TransformerConfig &cfg, const ModelWeights &weights,
           ExecPath path, unsigned activation_bits = 8,
           const ExecOptions &exec = {});

    // Not copyable or movable: execContext() points into this engine.
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Run one token through the model: forwardTokenBatch of one
     * sequence with the engine-default LoRA adapter.
     * @param token_id input token
     * @param cache per-sequence KV cache, appended in place
     * @return unembedding logits (vocab-sized)
     */
    Vec forwardToken(std::size_t token_id, KvCache &cache);

    /**
     * Run one token from each of several sequences through the model as
     * a single batched pass: every weight-bearing projection traverses
     * its weights once for the whole batch (Linear::forwardBatch), and
     * attention flattens (sequence, head) pairs across the pool.  This
     * is the only decode body; a single sequence is a batch of one.
     * Sequence s is bit-identical to forwardToken(tokens[s], *caches[s])
     * run alone, and stats accumulate the exact sum of the per-sequence
     * single-token runs (tests/test_serving.cc pins both).
     *
     * @param tokens one token id per sequence
     * @param caches one distinct cache per sequence (appended in place);
     *        sequences may sit at different positions
     * @param want_logits per-sequence flag; sequences with a zero flag
     *        skip the vocab-sized unembedding GEMM (their result slot is
     *        an empty Vec).  Empty means "all sequences want logits".
     *        The serving engine clears it for non-final prefill tokens.
     * @param loras per-sequence LoRA adapter override (multi-tenant
     *        serving: the front end hot-swaps the adapter per request
     *        slot).  Empty means every sequence runs the engine default
     *        (setLora()); otherwise loras[s] (null == base model) is
     *        applied to sequence s, bit-identical to a solo run with
     *        that adapter set as the default.
     * @return per-sequence unembedding logits (empty Vec when skipped)
     */
    std::vector<Vec> forwardTokenBatch(
        const std::vector<std::size_t> &tokens,
        const std::vector<KvCache *> &caches,
        const std::vector<std::uint8_t> &want_logits = {},
        const std::vector<const LoraSet *> &loras = {});

    /**
     * Prefill @p prompt then autoregressively decode @p decode_steps
     * tokens with @p sampler.  The prompt must be non-empty (there is
     * no position to decode from otherwise -- fatal).  decode_steps ==
     * 0 returns an empty vector without executing the model at all (no
     * prefill, no stats, no sampler draw).
     * @return the generated token ids (decode only, prompt excluded)
     */
    std::vector<std::size_t> generate(
        const std::vector<std::size_t> &prompt, std::size_t decode_steps,
        Sampler &sampler);

    /**
     * Fresh KV cache on this engine's shared block pool, so caches
     * made here can share prefix blocks with each other (and with the
     * prefix cache bound to kvPool()).
     * @param max_tokens_hint expected sequence length (bookkeeping
     *        reservation only; references are always stable)
     */
    KvCache makeCache(std::size_t max_tokens_hint = 0) const;

    /**
     * The paged-KV block pool every makeCache() view lives in.  Shared
     * ownership: outstanding caches keep the pool alive even if the
     * engine is destroyed (the router rebuilds engines under live
     * traffic while in-flight slot caches persist).
     */
    const std::shared_ptr<KvBlockPool> &kvPool() const
    {
        return kvPool_;
    }

    /**
     * Set the engine-default LoRA side-channel adapters for the
     * attention projections (paper Section 8 (4)); pass nullptr for the
     * base model.  The set must outlive the engine and match the
     * model's layer count/shapes.  This is the default every
     * single-sequence entry point (and any batch sequence without a
     * per-sequence override) runs with; multi-tenant front ends pass
     * per-slot adapters to forwardTokenBatch instead and keep the
     * default untouched.
     */
    void setLora(const LoraSet *lora);

    /** The current engine-default adapter set (null == base model). */
    const LoraSet *defaultLora() const { return ctx_.lora; }

    /**
     * Sequence scoring mode (paper Section 8 (3)): the total
     * log-probability of tokens[1..] under teacher forcing.
     */
    double scoreSequence(const std::vector<std::size_t> &tokens);

    /**
     * Text-embedding mode (paper Section 8 (3)): the final-norm hidden
     * state after consuming the sequence.
     */
    Vec embedSequence(const std::vector<std::size_t> &tokens);

    const EngineStats &stats() const { return stats_; }
    const TransformerConfig &config() const { return cfg_; }
    ExecPath path() const { return path_; }
    const ExecOptions &execOptions() const { return exec_; }

    /**
     * The bundled execution context every weight-bearing call below
     * this engine reads (path / bits / kernel / activity / pool /
     * scratch / obs sink).  The serving layer shares it for its
     * own span and metric emission.
     */
    const ExecContext &execContext() const { return ctx_; }

  private:
    /**
     * forwardHiddenBatch of one sequence with the engine-default LoRA
     * adapter: run one token, return the final-norm hidden.
     */
    Vec forwardHidden(std::size_t token_id, KvCache &cache);

    /** GQA attention: one sequence per column, per-seq positions and
     *  (resolved, possibly per-tenant) LoRA adapters. */
    std::vector<Vec> attentionBatch(
        const BlockWeights &block, const std::vector<Vec> &x_norms,
        std::size_t layer, const std::vector<KvCache *> &caches,
        const std::vector<const LoraSet *> &loras);

    /** Decode body: one token per sequence, final-norm hiddens out. */
    std::vector<Vec> forwardHiddenBatch(
        const std::vector<std::size_t> &tokens,
        const std::vector<KvCache *> &caches,
        const std::vector<const LoraSet *> &loras);

    TransformerConfig cfg_;
    const ModelWeights &weights_;
    /** Paged-KV block pool shared by every cache this engine makes. */
    std::shared_ptr<KvBlockPool> kvPool_;
    ExecPath path_;
    unsigned activationBits_;
    ExecOptions exec_;
    /** Null when exec_.threads <= 1 (pure serial execution). */
    std::unique_ptr<ThreadPool> pool_;
    /**
     * The buffers (quantised columns, bit planes, staged outputs) that
     * every GEMM and MoE expert stage this engine runs leases in turn,
     * so steady-state decode allocates none of them.
     */
    HnScratch scratch_;
    EngineStats stats_;
    /**
     * Built in the constructor (only ctx_.lora changes later, via
     * setLora); points at pool_, scratch_ and stats_.hnActivity,
     * so the engine must not be moved (copying is already impossible:
     * weights_ is a reference member).
     */
    ExecContext ctx_;
    /** Installed on pool_ when the sink carries a tracer. */
    std::unique_ptr<obs::PoolTaskTracer> poolTracer_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_ENGINE_HH
