/**
 * @file
 * Continuous-batching serving engine over the functional Engine.
 *
 * Implements iteration-level scheduling (paper Section 5.2, the
 * functional counterpart of pipeline/batcher.hh): up to `slots`
 * sequences are in flight at once, every scheduler step runs exactly one
 * token for every busy slot through Engine::forwardTokenBatch, and the
 * moment a sequence emits its last token its slot is re-admitted from
 * the FIFO queue.  Prefill and decode interleave freely -- a step may
 * carry prefill tokens of a fresh request next to decode tokens of
 * half-finished ones.
 *
 * SlotBatch is that slot stepper; ServingEngine wraps one in a FIFO
 * queue and a step clock, and serve::ServingRouter runs one per shard
 * (plus a one-slot batch for each health probe).
 *
 * The step clock uses the same slot semantics as ContinuousBatcher with
 * unit token timings, so the two can be cross-checked on one trace:
 * ServingEngine on {arrivalStep, prompt of p, d decode tokens} produces
 * admit/first-token/finish steps equal to ContinuousBatcher(slots, 1.0,
 * 1.0) on Request{arrivalStep, p, d - 1}.  (The serving engine samples
 * the first decode token from the last prefill forward, so a request
 * occupies its slot for p + d - 1 forwards.)
 *
 * Decoded tokens are bit-identical to running each request alone
 * through Engine::generate with the same sampler config and seed
 * (tests/test_serving.cc pins this across kernels, thread counts and
 * slot counts).
 */

#ifndef HNLPU_XFORMER_SERVING_HH
#define HNLPU_XFORMER_SERVING_HH

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/core.hh"
#include "xformer/engine.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/request.hh"

namespace hnlpu {

/** One queued generation request. */
struct ServingRequest
{
    std::vector<std::size_t> prompt;  //!< token ids, non-empty
    std::size_t decodeTokens = 0;     //!< tokens to generate, >= 1
    /** Scheduler step at which the request becomes admissible. */
    std::size_t arrivalStep = 0;
    SamplerConfig sampler;            //!< per-request sampling policy
    std::uint64_t seed = 0;           //!< per-request sampler seed
    /**
     * LoRA tenant this request runs as (xformer/lora.hh LoraRegistry).
     * Tenant 0 is the default tenant: unregistered, it serves the
     * engine-default adapter (Engine::setLora state), which is what
     * every pre-tenant call site maps onto.  Any other tenant must be
     * registered in the front end's registry or the request is refused
     * at enqueue with RejectReason::UnknownTenant.
     */
    std::size_t tenantId = 0;
};

/**
 * Validate the request fields every serving front end shares, in this
 * order: prompt non-empty, decodeTokens >= 1, prompt in-vocab, and a
 * sampler whose temperature is finite and non-negative (the Sampler
 * would otherwise panic or produce scan-order-dependent draws) and
 * whose topK fits the vocabulary.  Returns None or the first violated
 * rule; an invalid sampler emits a rate-limited warn so misbehaving
 * clients are visible without flooding stderr.  ServingEngine and
 * serve::ServingRouter both call it before their queue checks.
 */
RejectReason validateRequestFields(const std::vector<std::size_t> &prompt,
                                   std::size_t decode_tokens,
                                   const SamplerConfig &sampler,
                                   std::size_t vocab_size);

/** Completion record for one served request. */
struct ServingOutcome
{
    std::size_t id = 0;               //!< enqueue order
    std::size_t tenantId = 0;         //!< tenant the request ran as
    std::vector<std::size_t> tokens;  //!< decoded ids, in order

    // Step-clock milestones (cross-checkable against
    // ContinuousBatcher; see file comment).
    std::size_t arrivalStep = 0;
    std::size_t admitStep = 0;      //!< first forward ran at this step
    /**
     * == admitStep + promptTokens forwarded (the full prompt, minus
     * any prefix-cache match that skipped prefill).
     */
    std::size_t firstTokenStep = 0;
    std::size_t finishStep = 0;     //!< slot admissible again here

    // Wall-clock metrics, seconds relative to the request's arrival.
    double queueSeconds = 0;   //!< arrival -> admission
    double ttftSeconds = 0;    //!< arrival -> first token sampled
    double latencySeconds = 0; //!< arrival -> last token sampled
    /** Decoded tokens over the slot-occupancy time (admit -> finish). */
    double decodeTokensPerSecond = 0;
};

/**
 * Aggregate statistics of one ServingEngine::run.
 *
 * Every field is well-defined on an empty run (zero requests): means,
 * occupancy and percentiles are 0, never NaN, so downstream JSON
 * emitters and dashboards need no special-casing (obs::JsonWriter would
 * otherwise turn a NaN into null and silently break schema consumers).
 */
struct ServingStats
{
    std::size_t requests = 0;
    std::size_t slots = 0;
    std::size_t executedSteps = 0;  //!< steps that ran >= 1 forward
    std::size_t forwards = 0;       //!< busy-slot forwards issued
    std::size_t decodedTokens = 0;
    double wallSeconds = 0;
    /** Decoded tokens per wall second across the whole run. */
    double aggregateTokensPerSecond = 0;
    /** forwards / (executedSteps * slots). */
    double meanOccupancy = 0;
    double meanQueueSeconds = 0;
    // Percentiles over per-request wall metrics (StepTimeline).
    double ttftP50Seconds = 0;
    double ttftP95Seconds = 0;
    double latencyP50Seconds = 0;
    double latencyP95Seconds = 0;
    // Prefix-cache effect on this run (all zero when no prefix cache
    // is attached): admissions whose prompt matched a cached prefix,
    // admissions that missed, and the total prompt tokens whose
    // prefill was skipped.
    std::size_t prefixHits = 0;
    std::size_t prefixMisses = 0;
    std::size_t prefixMatchedTokens = 0;
};

/**
 * The one continuous-batching slot stepper: a fixed set of slots over a
 * borrowed Engine and optional PrefixCache.  ServingEngine, every
 * serve::ServingRouter shard and the router's health probe step it.
 * Not thread-safe; batches over distinct engines may step concurrently.
 */
class SlotBatch
{
  public:
    /** One token sampled by step(). */
    struct Event
    {
        std::size_t id = 0; //!< caller id given to admit()
        bool firstToken = false;
        /** Last token: the slot was released, its tokens moved here. */
        bool finished = false;
        std::vector<std::size_t> tokens;
    };

    /** @param prefix optional, bound to engine.kvPool() */
    SlotBatch(Engine &engine, std::size_t slots,
              PrefixCache *prefix = nullptr);

    /**
     * Put a request into the lowest free slot.  With a prefix cache,
     * the longest cached prefix of @p prompt in @p prefix_tenant's tree
     * (capped at |prompt| - 1: the last prompt token's logits seed the
     * sampler) is adopted and its prefill skipped.  @p prompt is
     * borrowed while the slot is busy; @p lora is the resolved tenant
     * adapter (null = base model).
     * @return the matched (skipped) prompt tokens
     */
    std::size_t admit(std::size_t id,
                      const std::vector<std::size_t> &prompt,
                      std::size_t decode_tokens,
                      const SamplerConfig &sampler, std::uint64_t seed,
                      std::size_t prefix_tenant, const LoraSet *lora);

    /**
     * One forwardTokenBatch over the busy slots (at least one): a
     * prompt token while prefilling, the last sampled token while
     * decoding, logits only where they feed the sampler.  A forward
     * that completes a prompt inserts it into the prefix cache unless
     * the slot's cache predates a rebind().  A non-empty @p span_name
     * wraps exactly the forward in a span with args {clock_step,
     * batch}.
     * @return this step's events in slot order, valid until the next
     *         step(); the caller may move their tokens out
     */
    std::vector<Event> &step(std::size_t clock_step,
                             std::string_view span_cat = {},
                             std::string_view span_name = {});

    /** Free a busy slot (cancel, failover); returns its tokens. */
    std::vector<std::size_t> release(std::size_t slot);

    /**
     * Step on a rebuilt engine and its prefix cache from now on.
     * In-flight caches stay in the old pool (kept alive by their
     * shared_ptr); only a functionally identical engine (a
     * spare-repaired fault) keeps their decode correct.
     */
    void rebind(Engine &engine, PrefixCache *prefix);

    std::size_t size() const { return slots_.size(); }
    bool busy(std::size_t slot) const { return slots_[slot].busy; }
    std::size_t requestId(std::size_t slot) const
    {
        return slots_[slot].id;
    }
    std::size_t busySlots() const;
    std::size_t freeSlots() const { return size() - busySlots(); }
    PrefixCache *prefixCache() const { return prefix_; }

  private:
    struct Slot
    {
        bool busy = false;
        std::size_t id = 0;
        const std::vector<std::size_t> *prompt = nullptr;
        std::size_t decodeTokens = 0;
        std::size_t prefixTenant = 0;
        std::size_t fed = 0; //!< forwards already issued
        const LoraSet *lora = nullptr;
        std::optional<KvCache> cache;
        std::optional<Sampler> sampler;
        std::vector<std::size_t> tokens;
    };

    Engine *engine_ = nullptr;
    PrefixCache *prefix_ = nullptr;
    std::vector<Slot> slots_;
    // Gather buffers reused by every step.
    std::vector<std::size_t> tokens_;
    std::vector<KvCache *> caches_;
    std::vector<std::uint8_t> want_;
    std::vector<const LoraSet *> loras_;
    std::vector<std::size_t> active_;
    std::vector<Event> events_;
};

/**
 * The step clock and wall-clock timeline of one serving run, shared by
 * ServingEngine and serve::ServingRouter.  Step s occupies the tick
 * window [tickOf(s), tickOf(s+1)) of a sim::StepClock starting at the
 * simulation's now(); the wall clock starts at construction.  The
 * timeline records when each step began, turns a request's step
 * milestones into wall-clock seconds, and folds them into percentiles.
 */
class StepTimeline
{
  public:
    /**
     * Quantile resolution for the per-request wall metrics: the
     * histogram spans exactly [min, max] of the observed samples, so
     * 4096 bins put the bin-midpoint error at ~0.01% of the range.
     */
    static constexpr std::size_t kQuantileBins = 4096;

    /**
     * @param trace null, or the tracer that receives one simulated-time
     *        span per executed step, named @p sim_span in @p cat
     */
    StepTimeline(sim::Simulation &sim, obs::Tracer *trace,
                 std::string cat, std::string sim_span);

    std::size_t step() const { return clock_.step(); }

    /** Seconds since construction. */
    double elapsed() const;

    /**
     * Skip idle steps up to @p target: nothing executes, so they take
     * no wall time.  The clock still advances one step at a time, so
     * events co-scheduled on the simulation see every step.
     */
    void idleUntil(std::size_t target);

    /** The current step executes: record its start time. */
    void beginStep();

    /**
     * Close the executed step: place it on the simulated timeline
     * (args {step, batch}) and advance the clock.
     */
    void endStep(std::size_t batch);

    /**
     * Close the run: the first never-executed step starts now, so
     * milestones of the last step resolve.
     * @return the run's wall seconds
     */
    double finish();

    /**
     * Wall seconds at the start of @p step, clamped to the last
     * recorded step (a front-door shed may carry an arrival step past
     * the executed range).
     */
    double wallAt(std::size_t step) const;

    /**
     * Set @p out's queue, TTFT and latency seconds (relative to
     * arrival) from its step milestones and add its TTFT and latency
     * to the run's samples.  Call after finish().
     */
    template <typename Outcome>
    void recordRequest(Outcome &out)
    {
        const double arrival = wallAt(out.arrivalStep);
        out.queueSeconds = wallAt(out.admitStep) - arrival;
        out.ttftSeconds = wallAt(out.firstTokenStep) - arrival;
        out.latencySeconds = wallAt(out.finishStep) - arrival;
        ttfts_.push_back(out.ttftSeconds);
        latencies_.push_back(out.latencySeconds);
    }

    /** @p q quantile of the recorded TTFTs (0 with none recorded). */
    double ttftQuantile(double q) const;
    /** @p q quantile of the recorded latencies. */
    double latencyQuantile(double q) const;

  private:
    sim::StepClock clock_;
    obs::Tracer *trace_;
    std::string cat_;
    std::string simSpan_;
    std::chrono::steady_clock::time_point t0_;
    /** stepWall_[t] = elapsed seconds when step t began. */
    std::vector<double> stepWall_;
    std::vector<double> ttfts_;
    std::vector<double> latencies_;
};

/**
 * Continuous-batching front end for one Engine: a FIFO queue, the step
 * clock and run statistics around one SlotBatch.
 *
 * Not thread-safe; run() drives the borrowed engine, which must not be
 * used elsewhere while serving.
 */
class ServingEngine
{
  public:
    /**
     * @param engine borrowed executor; must outlive the serving engine
     * @param slots concurrent sequences, >= 1 (1 == sequential serving)
     * @param prefix optional cross-request prefix cache (see SlotBatch)
     *        bound to this engine's kvPool(); decoded tokens stay
     *        bit-identical to unshared serving (tests/test_prefix.cc)
     */
    ServingEngine(Engine &engine, std::size_t slots,
                  PrefixCache *prefix = nullptr);

    /**
     * Per-tenant LoRA adapters.  Register tenants before enqueueing
     * their requests; each admitted request's slot resolves its adapter
     * once at admission and passes it to every forwardTokenBatch step,
     * so tenants interleave within one batch without touching the
     * engine-default adapter.  Requests for unknown tenants are refused
     * at enqueue (RejectReason::UnknownTenant).
     */
    LoraRegistry &loraRegistry() { return loraRegistry_; }
    const LoraRegistry &loraRegistry() const { return loraRegistry_; }

    /**
     * Queue a request (FIFO) if it is valid: non-empty in-vocab prompt,
     * decodeTokens >= 1, valid sampler, a known tenant, and an
     * arrivalStep no earlier than the queue tail's (the queue must be
     * arrival-sorted, the same contract ContinuousBatcher::serve
     * enforces).  An invalid request is refused with a typed reason and
     * the queue is untouched -- serving front ends shed it instead of
     * crashing.  The id is the enqueue order, stable across run().
     */
    EnqueueResult tryEnqueue(ServingRequest request);

    /**
     * Serve every queued request to completion and clear the queue.
     * @return per-request outcomes ordered by request id
     */
    std::vector<ServingOutcome> run();

    /**
     * Like run(), but the step loop advances a sim::StepClock on the
     * given shared Simulation: step s of this run occupies the tick
     * window [tickOf(s), tickOf(s+1)) starting from sim.now(), events
     * co-scheduled on the same clock execute interleaved with the
     * steps, and simulated-time step spans land on the unified
     * timeline when tracing.  Scheduling decisions and decoded tokens
     * are bit-identical to run(), which uses a private clock.
     */
    std::vector<ServingOutcome> runOn(sim::Simulation &sim);

    /** Aggregate statistics of the last run(). */
    const ServingStats &stats() const { return stats_; }

    /**
     * Last run's stats plus per-request records as a JSON object
     * (schema documented in DESIGN.md "Continuous-batching serving").
     */
    std::string metricsJson() const;

    std::size_t slotCount() const { return batch_.size(); }
    std::size_t queuedRequests() const { return queue_.size(); }

  private:
    Engine &engine_;
    SlotBatch batch_;
    LoraRegistry loraRegistry_;
    std::vector<ServingRequest> queue_;
    std::size_t nextId_ = 0;
    std::vector<ServingOutcome> outcomes_;
    ServingStats stats_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_SERVING_HH
