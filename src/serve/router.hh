/**
 * @file
 * Fault-tolerant serving router: N engine shards behind one admission
 * front end.
 *
 * The paper's economic case is HNLPU fleets under heavy sustained
 * traffic, so the serving path has to survive exactly the faults the
 * hardware model already admits -- dead neurons beyond spare-repair
 * capacity (src/fault), and flaky or severed CXL links (src/noc) --
 * without dropping the fleet or corrupting a single served token.  The
 * router fronts N shards, each a full Engine replica stepping its own
 * SlotBatch (xformer/serving.hh, the slot stepper ServingEngine runs
 * on), and keeps only policy -- class queues, deadlines, health,
 * failover, backoff and the link model -- layering four robustness
 * mechanisms on the shared scheduler step clock:
 *
 *  1. *Admission control*: bounded per-class queues (interactive ahead
 *     of batch) with typed load shedding (RejectReason) instead of the
 *     fatal aborts the single-engine path historically used.
 *  2. *Deadlines*: requests carry TTFT and total step budgets; an
 *     expired request is cancelled -- mid-decode if necessary -- and
 *     its slot reclaimed the same step.
 *  3. *Shard health and failover*: a fault event rebuilds the shard's
 *     weights through fault::applyToModel and the router probes it
 *     with a fixed greedy prompt against a golden transcript.  A
 *     spare-row-repaired shard probes bit-identical and keeps serving;
 *     an unrepairable shard is drained and its in-flight requests are
 *     retried on healthy shards under capped exponential backoff,
 *     reproducing tokens bit-identical to a clean solo
 *     Engine::generate (each retry restarts prefill with a fresh
 *     per-request Sampler, so determinism is preserved end to end).
 *     Lossy links (CRC-retry model) degrade a shard; a severed link
 *     drains it.
 *  4. *Graceful degradation*: with no healthy shard left the router
 *     sheds batch traffic first (typed DegradedShed), keeps serving
 *     interactive traffic on degraded shards, and raises a
 *     degraded-mode flag instead of failing; with no usable shard at
 *     all it sheds with NoUsableShard rather than aborting.
 *
 * Determinism: all scheduling decisions happen on the router thread
 * between steps; shard forwards run concurrently (one thread per
 * active shard) but touch disjoint state, so decoded tokens and every
 * step-clock milestone are independent of timing.  Wall-clock metrics
 * (TTFT, goodput) are the only nondeterministic outputs.
 */

#ifndef HNLPU_SERVE_ROUTER_HH
#define HNLPU_SERVE_ROUTER_HH

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "noc/fabric.hh"
#include "xformer/serving.hh"

namespace hnlpu::serve {

/** Scheduling priority of a routed request. */
enum class RequestClass
{
    Interactive, //!< latency-sensitive; admitted first, shed last
    Batch,       //!< throughput traffic; first to be shed
};

/** Stable snake_case name (JSON keys, log lines). */
const char *requestClassName(RequestClass cls);

/** Health of one engine shard as seen by the router. */
enum class ShardState
{
    Healthy,  //!< full service, bit-exact weights
    Degraded, //!< correct tokens but a lossy link; interactive only
              //!< when nothing healthier has capacity
    Drained,  //!< corrupt weights or severed link; no service
};

const char *shardStateName(ShardState state);

/** One request as submitted to the router. */
struct RouterRequest
{
    std::vector<std::size_t> prompt;
    std::size_t decodeTokens = 0;
    std::size_t arrivalStep = 0;
    SamplerConfig sampler;
    std::uint64_t seed = 0;
    RequestClass cls = RequestClass::Batch;
    /**
     * LoRA tenant (see ServingRequest::tenantId): tenant 0 is the
     * base-model default; any other tenant must be registered in
     * loraRegistry() before enqueue or the request is refused with
     * RejectReason::UnknownTenant.
     */
    std::size_t tenantId = 0;
    /**
     * Steps after arrival by which the first token must be sampled;
     * 0 disables.  A request that cannot ever meet it (budget below
     * prompt length) is rejected at enqueue as DeadlineInfeasible.
     */
    std::size_t ttftDeadlineSteps = 0;
    /**
     * Steps after arrival by which the last token must be sampled;
     * 0 disables.  Expiry mid-decode cancels the request and reclaims
     * its slot at the start of the next step.
     */
    std::size_t deadlineSteps = 0;
};

/**
 * One entry of the seeded fault schedule, applied at the first
 * executed step >= step (before deadline sweeps and admissions, so a
 * corrupted shard never samples a token).
 */
struct ShardFaultEvent
{
    std::size_t step = 0;
    std::size_t shard = 0;
    /**
     * When enabled(), the shard's weights are rebuilt through
     * fault::applyToModel with this plan and the shard is probed; a
     * bit-identical probe (all dead rows spare-repaired, no stuck
     * bits) keeps it in service, anything else drains it.
     */
    FaultModelParams modelFaults;
    /** When enabled(), the shard's CXL link turns lossy (CRC retry). */
    LinkFaultParams linkFaults;
    /** Sever the shard's CXL link outright (drains the shard). */
    bool killLink = false;
};

/** Terminal status of one routed request. */
enum class RequestStatus
{
    Completed, //!< all decodeTokens produced
    Shed,      //!< refused by load/health policy before completion
    Cancelled, //!< admitted but cancelled (deadline expiry)
};

const char *requestStatusName(RequestStatus status);

/** Completion record for one routed request. */
struct RouterOutcome
{
    std::size_t id = 0;
    std::size_t tenantId = 0;  //!< tenant the request ran as
    RequestClass cls = RequestClass::Batch;
    RequestStatus status = RequestStatus::Completed;
    /** Why the request was shed/cancelled; None when completed. */
    RejectReason reason = RejectReason::None;
    /** Decoded ids; complete requests only (partial work from a
     *  drained shard is discarded and regenerated on retry). */
    std::vector<std::size_t> tokens;

    std::size_t arrivalStep = 0;
    std::size_t admitStep = 0;      //!< last (successful) admission
    std::size_t firstTokenStep = 0; //!< on the final serving shard
    std::size_t finishStep = 0;     //!< completion / shed / cancel step
    /** Re-dispatches after a shard failure (0 == served first try). */
    std::size_t retries = 0;
    /** Shard that finished the request; npos when never admitted. */
    std::size_t shard = std::size_t(-1);

    // Wall-clock metrics relative to arrival (completed requests).
    double queueSeconds = 0;
    double ttftSeconds = 0;
    double latencySeconds = 0;
};

/** One drained-shard recovery episode (for BENCH_router.json). */
struct RecoveryRecord
{
    std::size_t faultStep = 0;   //!< step the shard was drained
    std::size_t shard = 0;
    std::size_t inflight = 0;    //!< requests failed over
    /** Step when every failed-over request reached a terminal
     *  status again (completed, shed, or cancelled). */
    std::size_t recoveredStep = 0;
    double recoverySeconds = 0;  //!< wall clock, faultStep->recovered
};

/** Aggregate statistics of one ServingRouter::run. */
struct RouterStats
{
    std::size_t shards = 0;
    std::size_t slotsPerShard = 0;
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t cancelled = 0;
    /** Shed + cancelled, broken down by typed reason. */
    std::array<std::size_t, kRejectReasonCount> byReason{};
    std::size_t retries = 0;        //!< re-dispatches issued
    std::size_t failovers = 0;      //!< in-flight requests displaced
    std::size_t faultsInjected = 0; //!< schedule entries applied
    std::size_t probes = 0;
    std::size_t probeFailures = 0;
    /** Admissions whose prompt matched a shard's cached prefix. */
    std::size_t prefixHits = 0;
    std::size_t prefixMisses = 0;
    /** Prompt tokens whose prefill a prefix-cache hit skipped. */
    std::size_t prefixMatchedTokens = 0;
    /** Health probes that reused a cached probe-prompt prefix. */
    std::size_t probePrefixHits = 0;
    std::size_t linkTimeouts = 0;   //!< CXL sends that exhausted retries
    std::size_t executedSteps = 0;
    std::size_t decodedTokens = 0;  //!< completed requests only (goodput)
    bool degradedMode = false;      //!< true once no healthy shard remained
    double wallSeconds = 0;
    double goodputTokensPerSecond = 0;
    double ttftP50Seconds = 0;
    double ttftP99Seconds = 0;
    double latencyP50Seconds = 0;
    double latencyP95Seconds = 0;
    std::vector<RecoveryRecord> recoveries;
};

/** Router tunables; validate() is fatal on nonsense. */
struct RouterConfig
{
    std::size_t shards = 2;
    std::size_t slotsPerShard = 2;
    /** Bounded queue capacities per class (backpressure). */
    std::size_t interactiveQueueCapacity = 256;
    std::size_t batchQueueCapacity = 256;
    /**
     * Re-dispatches allowed after a shard failure, each after a capped
     * exponential backoff of min(16, 1 << (attempt - 1)) steps.
     */
    std::size_t maxRetries = 3;
    /** Greedy health-probe transcript (must be in vocab). */
    std::vector<std::size_t> probePrompt = {1, 2, 3};
    std::size_t probeTokens = 4;
    /**
     * Per-shard cross-request prefix cache (xformer/prefix_cache.hh):
     * admissions adopt the longest cached prefix of their prompt and
     * skip its prefill; health probes reuse the cached probe prompt.
     * Off by default -- prefix hits shorten prefill, so step-clock
     * milestones (admit/first-token/finish) are no longer the unshared
     * ContinuousBatcher values.  Decoded tokens stay bit-identical
     * either way (tests/test_prefix.cc).  A shard whose weights are
     * rebuilt by a fault event gets a fresh, empty prefix cache: a
     * repaired shard never serves KV computed by its predecessor.
     */
    bool prefixCache = false;

    void validate(std::size_t vocab_size) const;
};

/**
 * The sharded serving front end.  Not thread-safe externally; run()
 * internally steps shards on concurrent threads.  The clean weights
 * are borrowed and must outlive the router; faulted twins built by
 * fault events are owned per shard.
 */
class ServingRouter
{
  public:
    static constexpr std::size_t npos = std::size_t(-1);

    /**
     * Builds one Engine replica per shard over @p clean.
     * @param exec per-shard execution options; the sink is shared by
     *        the router's own spans and counters
     */
    ServingRouter(const TransformerConfig &cfg,
                  const ModelWeights &clean, ExecPath path,
                  unsigned activation_bits, const ExecOptions &exec,
                  RouterConfig config);

    /**
     * Per-tenant LoRA adapters, shared by every shard (adapters are
     * plain data; each shard's engine applies its admitted requests'
     * adapters per slot, so a failover re-dispatch serves the same
     * tenant adapter on the new shard).  Register tenants before
     * enqueueing their requests.
     */
    LoraRegistry &loraRegistry() { return loraRegistry_; }
    const LoraRegistry &loraRegistry() const { return loraRegistry_; }

    /**
     * Submit a request (non-decreasing arrivalStep, as ServingEngine).
     * Applies validation and queue-capacity backpressure; a refused
     * request gets a typed reason and an outcome record, never an
     * abort.
     */
    EnqueueResult enqueue(RouterRequest request);

    /**
     * Register a fault event (non-decreasing step).  Must be called
     * before run(); the schedule is consumed by it.
     */
    void scheduleFault(ShardFaultEvent event);

    /**
     * Serve every queued request to a terminal status and clear the
     * queue.  Outcomes are ordered by request id and include entries
     * for requests shed at enqueue time.
     */
    std::vector<RouterOutcome> run();

    const RouterStats &stats() const { return stats_; }

    /** Last run's stats as JSON (schema: DESIGN.md "Serving
     *  robustness"). */
    std::string metricsJson() const;

    /**
     * Probe @p shard against the golden transcript right now (test
     * hook; must not be called while run() is stepping).  Uses the
     * shard's prefix cache when enabled, exactly like the fault-path
     * probe, and marks the shard's weights corrupt on divergence.
     * @return true when the probe matched the golden transcript
     */
    bool probeShardNow(std::size_t shard);

    std::size_t shardCount() const { return shards_.size(); }
    ShardState shardState(std::size_t shard) const;
    /** True once the run saw no healthy shard (sticky per run). */
    bool degradedMode() const { return stats_.degradedMode; }

  private:
    struct Shard
    {
        Shard(std::unique_ptr<Engine> shard_engine,
              std::shared_ptr<PrefixCache> shard_prefix,
              std::size_t slots, const CxlLinkParams &link);

        /** Null while the shard still serves the clean weights. */
        std::unique_ptr<ModelWeights> faultedWeights;
        std::unique_ptr<Engine> engine;
        /**
         * Prefix cache over engine->kvPool(); null unless
         * RouterConfig::prefixCache.  Recreated (empty) whenever a
         * fault event rebuilds the engine -- the old pool stays alive
         * through in-flight slot caches' shared_ptr until they drain.
         */
        std::shared_ptr<PrefixCache> prefix;
        /** The shard's decode slots over engine and prefix. */
        SlotBatch batch;
        /** Private frontend(chip 0) <-> shard(chip 1) CXL link. */
        std::unique_ptr<Fabric> fabric;
        Tick linkNow = 0;
        bool weightsCorrupt = false;
        bool linkDead = false;
        bool linkLossy = false;
        std::size_t linkTimeouts = 0;

        ShardState state() const;
    };

    /** Scheduling state of one submitted request. */
    struct ReqState
    {
        RouterRequest req;
        bool terminal = false;
        std::size_t attempts = 0;  //!< dispatches so far
        std::size_t readyStep = 0; //!< arrival or backoff expiry
    };

    std::unique_ptr<Engine> makeEngine(const ModelWeights &weights);
    /** Reset per-cycle accounting at the first post-run submission. */
    void freshCycle();
    void finish(std::size_t id, RequestStatus status,
                RejectReason reason, std::size_t step);
    void applyFaultEvents(std::size_t step);
    bool probeShard(Shard &shard);
    /** Greedy probe decode: a one-slot SlotBatch on the shard. */
    std::vector<std::size_t> probeGenerate(Shard &shard);
    void failoverShard(std::size_t shard_index, std::size_t step);
    void sweepDeadlines(std::size_t step);
    void shedPolicy(std::size_t step);
    void admit(std::size_t step);
    /** Dispatch-cost send over the shard's link; detects timeouts. */
    void dispatchSend(std::size_t shard_index, std::size_t tokens);
    std::size_t healthyShards() const;
    std::size_t usableShards() const;

    TransformerConfig cfg_;
    const ModelWeights &clean_;
    ExecPath path_;
    unsigned activationBits_;
    ExecOptions exec_;
    RouterConfig config_;

    std::vector<Shard> shards_;
    std::vector<std::size_t> goldenProbe_;
    LoraRegistry loraRegistry_;

    std::vector<ReqState> requests_;
    std::vector<RouterOutcome> outcomes_;
    /** Pending request ids by class (Interactive, Batch). */
    std::array<std::deque<std::size_t>, 2> queues_;
    std::vector<ShardFaultEvent> schedule_;
    std::size_t nextEvent_ = 0;
    std::size_t terminalCount_ = 0;

    /** Failed-over request sets still open, for recovery records. */
    struct OpenRecovery
    {
        RecoveryRecord record;
        std::vector<std::size_t> waiting;
    };
    std::vector<OpenRecovery> openRecoveries_;

    RouterStats stats_;
};

} // namespace hnlpu::serve

#endif // HNLPU_SERVE_ROUTER_HH
