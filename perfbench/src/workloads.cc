/**
 * @file
 * The three benchmark workloads.
 *
 *  - solo_decode: one closed-loop client issuing back-to-back
 *    Engine::generate calls on a wide block (hidden 1024, 16 words per
 *    bit plane: at the Simd cutover), hardwired path, Simd kernel, 4
 *    threads.  Stresses the single-token stack (forwardToken, the GEMV
 *    kernels, per-layer fork-joins); bypasses batching, the serving
 *    scheduler, the prefix cache and the router.
 *  - batch_decode: an offline batch through ServingEngine on the same
 *    block and settings with 8 slots; every request arrives at step 0
 *    with a unique prompt.  Stresses the batched GEMM path, batched
 *    attention and KV appends; the attached PrefixCache only ever runs
 *    its miss-and-insert path.
 *  - chat_fleet: a ServingRouter with 2 shards x 4 slots on the narrow
 *    288-wide block (hardwired Packed, 1 engine thread) under Pareto
 *    arrivals below the fleet's step capacity; 90% of prompts open with
 *    a shared system prompt, two LoRA tenants, a class mix with step
 *    deadlines, and a spare-repairable weight fault at the start of
 *    every lap.
 *    Stresses admission, queues, deadlines, probes, prefix lookup and
 *    adoption, copy-on-write KV and per-slot LoRA; bypasses Simd and
 *    the thread pool.
 */

#include <malloc.h>

#include <cmath>
#include <iterator>

#include "bench.hh"
#include "common/logging.hh"
#include "expt/experiment.hh"
#include "obs/metrics.hh"
#include "serve/router.hh"
#include "xformer/engine.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/serving.hh"

namespace hnbench {

using namespace hnlpu;

void
EngineWork::addDelta(const EngineStats &before, const EngineStats &after)
{
    activity.cycles += after.hnActivity.cycles - before.hnActivity.cycles;
    activity.popcountBitOps +=
        after.hnActivity.popcountBitOps - before.hnActivity.popcountBitOps;
    activity.multiplyOps +=
        after.hnActivity.multiplyOps - before.hnActivity.multiplyOps;
    activity.treeAddOps +=
        after.hnActivity.treeAddOps - before.hnActivity.treeAddOps;
    experts.resize(after.expertHistogram.size(), 0);
    for (std::size_t e = 0; e < experts.size(); ++e)
        experts[e] += after.expertHistogram[e] - before.expertHistogram[e];
}

std::size_t
LapResult::decodedTokens() const
{
    std::size_t n = 0;
    for (const RequestResult &r : requests)
        n += r.completed ? r.tokens.size() : 0;
    return n;
}

namespace {

/**
 * gpt-oss-shaped single block wide enough for the Simd body: 1024
 * inputs are 16 64-bit words per bit plane (kHnSimdMinWords), at ~32M
 * parameters, under the 64M instantiation guard.
 */
TransformerConfig
wideBlock()
{
    TransformerConfig cfg;
    cfg.name = "gpt-oss-wide-block";
    cfg.hiddenSize = 1024;
    cfg.layerCount = 1;
    cfg.queryHeads = 16;
    cfg.kvHeads = 4;
    cfg.headDim = 64;
    cfg.vocabSize = 2048;
    cfg.expertCount = 8;
    cfg.activeExperts = 2;
    cfg.expertHidden = 1024;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

/**
 * The trace for @p tc with every token id shifted by a seed-derived
 * offset: makeServingTrace draws only lengths and arrivals from its
 * seed, so without the shift two seeds would serve the same prompts.
 * A uniform shift keeps shared prefixes shared.
 */
std::vector<expt::TraceRequest>
seededTrace(expt::TraceConfig tc, std::uint64_t seed)
{
    tc.seed = seed;
    Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
    const std::size_t shift = rng.nextBelow(tc.vocabSize);
    std::vector<expt::TraceRequest> trace = expt::makeServingTrace(tc);
    for (expt::TraceRequest &req : trace) {
        for (std::size_t &tok : req.prompt)
            tok = (tok + shift) % tc.vocabSize;
    }
    return trace;
}

/**
 * Hand memory freed by a previous set-up back to the system, so every
 * set-up starts from the same heap and the peak RSS of a run does not
 * depend on how the allocator happened to retain the last one.
 */
void
releaseFreedMemory()
{
    malloc_trim(0);
}

/** Prompt of the set-up's first forward. */
const std::vector<std::size_t> kFirstPrompt = {1, 2, 3, 4};

/** Shared state and plumbing of the two wide-block workloads. */
class WideWorkload : public Workload
{
  public:
    explicit WideWorkload(std::uint64_t weight_seed)
        : cfg_(wideBlock()), weightSeed_(weight_seed)
    {
    }

    const std::vector<expt::TraceRequest> &
    lapRequests(std::size_t) const override
    {
        return requests_;
    }

    bool lapsRepeat() const override { return true; }

    const TransformerConfig &config() const override { return cfg_; }
    const ModelWeights &weights() const override { return *weights_; }
    const LoraSet *adapter(std::size_t) const override { return nullptr; }
    std::size_t threads() const override { return kThreads; }
    bool pinned() const override { return true; }
    // The Packed single-thread re-decode runs ~35 tok/s at this width.
    std::size_t verifyCount() const override { return 2; }

    std::size_t
    kvBlocks() const override
    {
        return engine_->kvPool()->totalBlocks();
    }

  protected:
    static constexpr std::size_t kThreads = 4;

    std::unique_ptr<Engine>
    makeEngine(const obs::Sink *sink) const
    {
        ExecOptions exec;
        exec.threads = kThreads;
        exec.kernel = HnKernel::Simd;
        exec.pinThreads = true;
        exec.sink = sink;
        return std::make_unique<Engine>(cfg_, *weights_, ExecPath::Hardwired,
                                        kActivationBits, exec);
    }

    void
    describeModel(obs::JsonWriter &w) const
    {
        w.field("model", cfg_.name);
        w.field("hidden", cfg_.hiddenSize);
        w.field("params", cfg_.totalParams());
        w.field("path", "hardwired");
        w.field("kernel", "simd");
        w.field("threads", kThreads);
    }

    /** Time a fresh weight build; drops the serving objects first. */
    double
    buildWeights()
    {
        dropServing();
        engine_.reset();
        weights_.reset();
        releaseFreedMemory();
        const auto t0 = Clock::now();
        weights_ = std::make_unique<ModelWeights>(
            ModelWeights::randomInit(cfg_, weightSeed_));
        return secondsSince(t0);
    }

    /** Release objects that borrow engine_ (before it is replaced). */
    virtual void dropServing() {}

    TransformerConfig cfg_;
    std::uint64_t weightSeed_;
    std::vector<expt::TraceRequest> requests_;
    std::unique_ptr<ModelWeights> weights_;
    std::unique_ptr<Engine> engine_;
    obs::Tracer *tracer_ = nullptr;
};

class SoloDecode final : public WideWorkload
{
  public:
    SoloDecode(std::uint64_t seed, std::uint64_t weight_seed)
        : WideWorkload(weight_seed)
    {
        expt::TraceConfig tc;
        tc.vocabSize = cfg_.vocabSize;
        tc.requests = kLapRequests;
        tc.promptBase = 4;
        tc.promptMod = 4;
        tc.decodeBase = 32;
        requests_ = seededTrace(tc, seed);
    }

    const char *name() const override { return "solo_decode"; }
    // The first-token calls are extra benchmark work, outside the root.
    const char *measuredSpan() const override { return "bench.request"; }

    void
    describe(obs::JsonWriter &w) const override
    {
        describeModel(w);
        w.field("entry_point", "Engine::generate");
        w.field("load", "closed loop, 1 client");
        w.field("lap_requests", kLapRequests);
        w.field("ttft_source",
                "a generate(prompt, 1) call on the same prompt and "
                "sampler seed before each request");
    }

    SetupTimes
    setUp() override
    {
        SetupTimes t;
        t.weightsS = buildWeights();
        auto t0 = Clock::now();
        engine_ = makeEngine(nullptr);
        t.constructS = secondsSince(t0);
        t0 = Clock::now();
        KvCache cache = engine_->makeCache(kFirstPrompt.size());
        for (const std::size_t tok : kFirstPrompt)
            engine_->forwardToken(tok, cache);
        t.firstForwardS = secondsSince(t0);
        return t;
    }

    void
    attachSink(const obs::Sink *sink) override
    {
        engine_.reset();
        engine_ = makeEngine(sink);
        tracer_ = sink->trace;
    }

    LapResult
    runLap(std::size_t) override
    {
        LapResult lap;
        lap.engine.emplace();
        for (const expt::TraceRequest &req : requests_) {
            RequestResult r;
            {
                obs::ScopedSpan span(tracer_, "bench", "bench.first_token");
                Sampler sampler(req.sampler, req.seed);
                const auto t0 = Clock::now();
                engine_->generate(req.prompt, 1, sampler);
                r.ttftS = secondsSince(t0);
            }
            {
                obs::ScopedSpan span(tracer_, "bench", "bench.request");
                Sampler sampler(req.sampler, req.seed);
                const EngineStats before = engine_->stats();
                const auto t0 = Clock::now();
                r.tokens =
                    engine_->generate(req.prompt, req.decodeTokens, sampler);
                r.latencyS = secondsSince(t0);
                lap.engine->addDelta(before, engine_->stats());
            }
            r.completed = true;
            lap.wallS += r.latencyS;
            lap.forwards += req.prompt.size() + req.decodeTokens - 1;
            lap.requests.push_back(std::move(r));
        }
        return lap;
    }

  private:
    static constexpr std::size_t kLapRequests = 8;
};

class BatchDecode final : public WideWorkload
{
  public:
    BatchDecode(std::uint64_t seed, std::uint64_t weight_seed)
        : WideWorkload(weight_seed)
    {
        expt::TraceConfig tc;
        tc.vocabSize = cfg_.vocabSize;
        tc.requests = kLapRequests;
        tc.promptBase = 4;
        tc.promptMod = 4;
        tc.decodeBase = 32;
        requests_ = seededTrace(tc, seed);
    }

    const char *name() const override { return "batch_decode"; }
    const char *measuredSpan() const override { return "bench.lap"; }

    void
    describe(obs::JsonWriter &w) const override
    {
        describeModel(w);
        w.field("entry_point", "ServingEngine::run");
        w.field("slots", kSlots);
        w.field("prefix_cache", true);
        w.field("load", "offline batch: every lap request arrives at "
                        "step 0");
        w.field("lap_requests", kLapRequests);
    }

    SetupTimes
    setUp() override
    {
        SetupTimes t;
        t.weightsS = buildWeights();
        const auto t0 = Clock::now();
        construct(nullptr);
        t.constructS = secondsSince(t0);
        t.firstForwardS = firstForward();
        return t;
    }

    void
    attachSink(const obs::Sink *sink) override
    {
        dropServing();
        engine_.reset();
        construct(sink);
        tracer_ = sink->trace;
    }

    LapResult
    runLap(std::size_t) override
    {
        // Every lap serves the same prompts: emptying the cache keeps
        // each admission on the miss-and-insert path.
        prefix_->clear();
        LapResult lap;
        std::vector<bool> admitted;
        for (const expt::TraceRequest &tr : requests_) {
            ServingRequest req;
            req.prompt = tr.prompt;
            req.decodeTokens = tr.decodeTokens;
            req.arrivalStep = tr.arrivalStep;
            req.sampler = tr.sampler;
            req.seed = tr.seed;
            admitted.push_back(serving_->tryEnqueue(std::move(req))
                                   .admitted());
            lap.promptTokens += tr.prompt.size();
        }
        std::vector<ServingOutcome> outcomes;
        const EngineStats before = engine_->stats();
        {
            obs::ScopedSpan span(tracer_, "bench", "bench.lap");
            const auto t0 = Clock::now();
            outcomes = serving_->run();
            lap.wallS = secondsSince(t0);
        }
        lap.engine.emplace();
        lap.engine->addDelta(before, engine_->stats());
        std::size_t next = 0;
        for (const bool ok : admitted) {
            RequestResult r;
            if (ok) {
                const ServingOutcome &out = outcomes[next++];
                r.completed = true;
                r.tokens = out.tokens;
                r.ttftS = out.ttftSeconds;
                r.latencyS = out.latencySeconds;
                r.queueS = out.queueSeconds;
                r.queueSteps = out.admitStep - out.arrivalStep;
            } else {
                r.status = std::size_t(serve::RequestStatus::Shed);
            }
            lap.requests.push_back(std::move(r));
        }
        const ServingStats &stats = serving_->stats();
        lap.steps = stats.executedSteps;
        lap.forwards = stats.forwards;
        lap.prefixHits = stats.prefixHits;
        lap.prefixMisses = stats.prefixMisses;
        lap.matchedTokens = stats.prefixMatchedTokens;
        return lap;
    }

  private:
    static constexpr std::size_t kLapRequests = 20;
    static constexpr std::size_t kSlots = 8;

    void
    construct(const obs::Sink *sink)
    {
        engine_ = makeEngine(sink);
        prefix_ = std::make_unique<PrefixCache>(engine_->kvPool(), sink);
        serving_ = std::make_unique<ServingEngine>(*engine_, kSlots,
                                                   prefix_.get());
    }

    /** One forward through the batched path the workload serves on. */
    double
    firstForward()
    {
        const auto t0 = Clock::now();
        KvCache cache = engine_->makeCache(kFirstPrompt.size());
        for (const std::size_t tok : kFirstPrompt)
            engine_->forwardTokenBatch({tok}, {&cache});
        return secondsSince(t0);
    }

    void
    dropServing() override
    {
        serving_.reset();
        prefix_.reset();
    }

    std::unique_ptr<PrefixCache> prefix_;
    std::unique_ptr<ServingEngine> serving_;
};

class ChatFleet final : public Workload
{
  public:
    ChatFleet(std::uint64_t seed, std::uint64_t weight_seed)
        : cfg_(expt::defaultModelPreset()), seed_(seed),
          weightSeed_(weight_seed)
    {
        expt::TraceConfig tc;
        tc.vocabSize = cfg_.vocabSize;
        tc.requests = kLapRequests * kTraceLaps;
        tc.paretoArrivals = true;
        tc.arrivalAlpha = kArrivalAlpha;
        tc.arrivalCap = kArrivalCap;
        tc.decodeBase = 2;
        tc.paretoDecode = true;
        tc.decodeAlpha = 1.5;
        tc.decodeCap = 24;
        tc.promptBase = 4;
        tc.promptMod = 4;
        tc.sharedPercent = 90;
        tc.sharedTokens = 48;
        tc.classMix = true;
        tc.deadlines = true;
        for (const TenantSpec &t : kTenants) {
            tc.tenantIds.push_back(t.id);
            tc.tenantWeights.push_back(t.weight);
        }
        const std::vector<expt::TraceRequest> trace = seededTrace(tc, seed);
        offeredLoad_ =
            double(trace.size()) / double(trace.back().arrivalStep + 1);
        // Lap k serves slice k, its arrivals rebased to step 0.
        for (std::size_t lap = 0; lap < kTraceLaps; ++lap) {
            auto first = trace.begin() + std::ptrdiff_t(lap * kLapRequests);
            std::vector<expt::TraceRequest> slice(first,
                                                  first + kLapRequests);
            const std::size_t base = slice.front().arrivalStep;
            for (expt::TraceRequest &req : slice)
                req.arrivalStep -= base;
            laps_.push_back(std::move(slice));
        }
    }

    const char *name() const override { return "chat_fleet"; }
    const char *measuredSpan() const override { return "bench.lap"; }

    void
    describe(obs::JsonWriter &w) const override
    {
        w.field("model", cfg_.name);
        w.field("hidden", cfg_.hiddenSize);
        w.field("params", cfg_.totalParams());
        w.field("path", "hardwired");
        w.field("kernel", "packed");
        w.field("threads", std::size_t(1));
        w.field("entry_point", "ServingRouter::run");
        w.field("shards", kShards);
        w.field("slots_per_shard", kSlotsPerShard);
        w.field("prefix_cache", true);
        w.field("tenants", std::size_t(std::size(kTenants)));
        w.field("load", "open loop on the step clock, Pareto "
                        "inter-arrival steps");
        w.field("arrival_alpha", kArrivalAlpha);
        w.field("arrival_cap_steps", kArrivalCap);
        w.field("offered_requests_per_step", offeredLoad_);
        w.field("lap_requests", kLapRequests);
        w.field("distinct_laps", kTraceLaps);
        w.field("fault", "spare-repairable dead rows on shard 0 at the "
                         "first step of every lap");
    }

    SetupTimes
    setUp() override
    {
        SetupTimes t;
        router_.reset();
        adapters_.clear();
        weights_.reset();
        releaseFreedMemory();
        auto t0 = Clock::now();
        weights_ = std::make_unique<ModelWeights>(
            ModelWeights::randomInit(cfg_, weightSeed_));
        for (const TenantSpec &spec : kTenants)
            adapters_.push_back(LoraSet::random(
                cfg_.layerCount, cfg_.hiddenSize, cfg_.qProjectionDim(),
                spec.rank, spec.seed, spec.scale));
        t.weightsS = secondsSince(t0);
        t0 = Clock::now();
        construct(nullptr);
        t.constructS = secondsSince(t0);
        t0 = Clock::now();
        for (std::size_t s = 0; s < kShards; ++s)
            hnlpu_assert(router_->probeShardNow(s),
                         "clean shard failed its health probe");
        t.firstForwardS = secondsSince(t0);
        return t;
    }

    void
    attachSink(const obs::Sink *sink) override
    {
        router_.reset();
        construct(sink);
        tracer_ = sink->trace;
        metrics_ = sink->metrics;
    }

    LapResult
    runLap(std::size_t index) override
    {
        const std::vector<expt::TraceRequest> &requests = lapRequests(index);
        LapResult lap;
        for (const expt::TraceRequest &tr : requests) {
            serve::RouterRequest req;
            req.prompt = tr.prompt;
            req.decodeTokens = tr.decodeTokens;
            req.arrivalStep = tr.arrivalStep;
            req.sampler = tr.sampler;
            req.seed = tr.seed;
            req.tenantId = tr.tenantId;
            req.cls = tr.interactive ? serve::RequestClass::Interactive
                                     : serve::RequestClass::Batch;
            req.ttftDeadlineSteps = tr.ttftDeadlineSteps;
            req.deadlineSteps = tr.deadlineSteps;
            router_->enqueue(std::move(req));
            lap.promptTokens += tr.prompt.size();
        }
        // A repaired fault at the lap's first step: shard 0 is rebuilt,
        // probed and its prefix cache emptied, so each lap's first
        // requests on it prefill cold.  No decode is in flight yet, so
        // the stall lands on goodput and TTFT, not on the TPOT tail.
        serve::ShardFaultEvent fault;
        fault.shard = 0;
        fault.modelFaults.seed = seed_;
        fault.modelFaults.deadRowRate = 0.005;
        fault.modelFaults.spareRows = 128;
        router_->scheduleFault(fault);

        const auto matched = [this] {
            if (!metrics_)
                return 0.0;
            const obs::LatencyHistogram *h =
                metrics_->latency("prefix.matched_tokens", 0.0, 4096.0, 512);
            return h->mean() * double(h->count());
        };
        const double matched_before = matched();
        std::vector<serve::RouterOutcome> outcomes;
        {
            obs::ScopedSpan span(tracer_, "bench", "bench.lap");
            const auto t0 = Clock::now();
            outcomes = router_->run();
            lap.wallS = secondsSince(t0);
        }
        lap.matchedTokens =
            std::size_t(std::llround(matched() - matched_before));
        for (const serve::RouterOutcome &out : outcomes) {
            RequestResult r;
            r.completed = out.status == serve::RequestStatus::Completed;
            r.status = std::size_t(out.status);
            r.tokens = out.tokens;
            r.ttftS = out.ttftSeconds;
            r.latencyS = out.latencySeconds;
            r.queueS = out.queueSeconds;
            r.queueSteps = r.completed ? out.admitStep - out.arrivalStep : 0;
            lap.requests.push_back(std::move(r));
        }
        const serve::RouterStats &stats = router_->stats();
        lap.steps = stats.executedSteps;
        lap.prefixHits = stats.prefixHits;
        lap.prefixMisses = stats.prefixMisses;
        lap.shed = stats.shed;
        lap.cancelled = stats.cancelled;
        lap.retries = stats.retries;
        lap.probes = stats.probes;
        lap.probeFailures = stats.probeFailures;
        lap.failovers = stats.failovers;
        // Health probes look up their own prompt in the prefix cache.
        lap.promptTokens += stats.probes * kProbePromptTokens;
        return lap;
    }

    /**
     * The router keeps its shard pools private; with a metrics registry
     * attached, the prefix caches' live-block gauge (last shard to
     * update it) is the public view.
     */
    std::size_t
    kvBlocks() const override
    {
        return metrics_ ? std::size_t(
                              metrics_->gauge("prefix.blocks_live")->value())
                        : 0;
    }

    const std::vector<expt::TraceRequest> &
    lapRequests(std::size_t lap) const override
    {
        return laps_[lap % kTraceLaps];
    }

    bool lapsRepeat() const override { return false; }

    const TransformerConfig &config() const override { return cfg_; }
    const ModelWeights &weights() const override { return *weights_; }

    const LoraSet *
    adapter(std::size_t tenant) const override
    {
        for (std::size_t i = 0; i < std::size(kTenants); ++i) {
            if (kTenants[i].id == tenant)
                return &adapters_[i];
        }
        return nullptr;
    }

    std::size_t threads() const override { return 1; }
    bool pinned() const override { return false; }
    std::size_t verifyCount() const override { return 3; }

  private:
    struct TenantSpec
    {
        std::size_t id;
        std::size_t rank;
        std::uint64_t seed;
        double scale;
        double weight;
    };
    static constexpr TenantSpec kTenants[] = {
        {1, 4, 131, 0.25, 3.0},
        {2, 4, 132, 0.25, 1.0},
    };
    static constexpr std::size_t kLapRequests = 128;
    /** Distinct laps before the trace wraps around. */
    static constexpr std::size_t kTraceLaps = 64;
    static constexpr std::size_t kShards = 2;
    static constexpr std::size_t kSlotsPerShard = 4;
    static constexpr double kArrivalAlpha = 1.1;
    static constexpr std::size_t kArrivalCap = 30;
    static constexpr std::size_t kProbePromptTokens = 3;

    void
    construct(const obs::Sink *sink)
    {
        ExecOptions exec;
        exec.threads = 1;
        exec.kernel = HnKernel::Packed;
        exec.sink = sink;
        serve::RouterConfig rc;
        rc.shards = kShards;
        rc.slotsPerShard = kSlotsPerShard;
        rc.prefixCache = true;
        // Every lap request is enqueued before run(): the queues must
        // hold the whole lap, or its tail is shed at enqueue.
        rc.interactiveQueueCapacity = kLapRequests;
        rc.batchQueueCapacity = kLapRequests;
        hnlpu_assert(rc.probePrompt.size() == kProbePromptTokens,
                     "router probe prompt changed length");
        router_ = std::make_unique<serve::ServingRouter>(
            cfg_, *weights_, ExecPath::Hardwired, kActivationBits, exec,
            rc);
        for (std::size_t i = 0; i < std::size(kTenants); ++i)
            router_->loraRegistry().registerTenant(kTenants[i].id,
                                                   &adapters_[i]);
    }

    TransformerConfig cfg_;
    std::uint64_t seed_;
    std::uint64_t weightSeed_;
    std::vector<std::vector<expt::TraceRequest>> laps_;
    double offeredLoad_ = 0;
    std::unique_ptr<ModelWeights> weights_;
    std::vector<LoraSet> adapters_;
    std::unique_ptr<serve::ServingRouter> router_;
    obs::Tracer *tracer_ = nullptr;
    obs::MetricsRegistry *metrics_ = nullptr;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "solo_decode", "batch_decode", "chat_fleet"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t weight_seed)
{
    if (name == "solo_decode")
        return std::make_unique<SoloDecode>(seed, weight_seed);
    if (name == "batch_decode")
        return std::make_unique<BatchDecode>(seed, weight_seed);
    if (name == "chat_fleet")
        return std::make_unique<ChatFleet>(seed, weight_seed);
    return nullptr;
}

} // namespace hnbench
