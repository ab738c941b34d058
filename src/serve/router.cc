#include "serve/router.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "fault/model_faults.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hnlpu::serve {

namespace {

/**
 * Capped exponential retry backoff, in steps:
 * delay(attempt) = min(cap, base << (attempt - 1)).
 */
constexpr std::size_t kBackoffBaseSteps = 1;
constexpr std::size_t kBackoffCapSteps = 16;
/** CXL send retry-timeouts before a shard is marked Degraded. */
constexpr std::size_t kLinkTimeoutLimit = 2;
/** Bytes per token for dispatch-cost accounting on a shard's link. */
constexpr double kDispatchBytesPerToken = 4.0;
/** Dispatch link model (one private frontend<->shard link each). */
const CxlLinkParams kDispatchLink{};

/** Class index for the queues_ array. */
std::size_t
classIndex(RequestClass cls)
{
    return cls == RequestClass::Interactive ? 0 : 1;
}

} // namespace

const char *
requestClassName(RequestClass cls)
{
    return cls == RequestClass::Interactive ? "interactive" : "batch";
}

const char *
shardStateName(ShardState state)
{
    switch (state) {
      case ShardState::Healthy: return "healthy";
      case ShardState::Degraded: return "degraded";
      case ShardState::Drained: return "drained";
    }
    hnlpu_panic("unknown ShardState ", int(state));
}

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::Completed: return "completed";
      case RequestStatus::Shed: return "shed";
      case RequestStatus::Cancelled: return "cancelled";
    }
    hnlpu_panic("unknown RequestStatus ", int(status));
}

void
RouterConfig::validate(std::size_t vocab_size) const
{
    if (shards == 0)
        hnlpu_fatal("router needs at least one shard");
    if (slotsPerShard == 0)
        hnlpu_fatal("router shards need at least one slot");
    if (interactiveQueueCapacity == 0 || batchQueueCapacity == 0)
        hnlpu_fatal("router queue capacities must be >= 1");
    if (probePrompt.empty() || probeTokens == 0)
        hnlpu_fatal("router health probe needs a prompt and >= 1 token");
    for (const std::size_t id : probePrompt) {
        if (id >= vocab_size)
            hnlpu_fatal("router probe token ", id,
                        " out of vocab range ", vocab_size);
    }
}

ShardState
ServingRouter::Shard::state() const
{
    if (weightsCorrupt || linkDead)
        return ShardState::Drained;
    if (linkLossy)
        return ShardState::Degraded;
    return ShardState::Healthy;
}

ServingRouter::Shard::Shard(std::unique_ptr<Engine> shard_engine,
                            std::shared_ptr<PrefixCache> shard_prefix,
                            std::size_t slots, const CxlLinkParams &link)
    : engine(std::move(shard_engine)), prefix(std::move(shard_prefix)),
      batch(*engine, slots, prefix.get()),
      // One private frontend(0) <-> shard(1) CXL link pair, so a fault
      // event can make a single shard's link lossy or dead without
      // touching its peers.
      fabric(std::make_unique<Fabric>(1, 2, link))
{
}

ServingRouter::ServingRouter(const TransformerConfig &cfg,
                             const ModelWeights &clean, ExecPath path,
                             unsigned activation_bits,
                             const ExecOptions &exec,
                             RouterConfig config)
    : cfg_(cfg), clean_(clean), path_(path),
      activationBits_(activation_bits), exec_(exec),
      config_(std::move(config))
{
    config_.validate(cfg_.vocabSize);

    shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
        std::unique_ptr<Engine> engine = makeEngine(clean_);
        std::shared_ptr<PrefixCache> prefix;
        if (config_.prefixCache)
            prefix = std::make_shared<PrefixCache>(engine->kvPool(),
                                                   exec_.sink);
        shards_.emplace_back(std::move(engine), std::move(prefix),
                             config_.slotsPerShard, kDispatchLink);
    }

    // Golden health-probe transcript from a throwaway clean engine
    // (shard engines are left unpolluted).  Greedy sampling: the probe
    // must depend on the weights alone, never on an RNG stream.
    {
        Engine probe_engine(cfg_, clean_, path_, activationBits_,
                            exec_);
        Sampler greedy(SamplerConfig{0.0, 0}, 0);
        goldenProbe_ = probe_engine.generate(
            config_.probePrompt, config_.probeTokens, greedy);
    }

    stats_.shards = config_.shards;
    stats_.slotsPerShard = config_.slotsPerShard;
}

std::unique_ptr<Engine>
ServingRouter::makeEngine(const ModelWeights &weights)
{
    return std::make_unique<Engine>(cfg_, weights, path_,
                                    activationBits_, exec_);
}

ShardState
ServingRouter::shardState(std::size_t shard) const
{
    hnlpu_assert(shard < shards_.size(), "shard index out of range");
    return shards_[shard].state();
}

std::size_t
ServingRouter::healthyShards() const
{
    std::size_t n = 0;
    for (const Shard &shard : shards_)
        n += shard.state() == ShardState::Healthy ? 1 : 0;
    return n;
}

std::size_t
ServingRouter::usableShards() const
{
    std::size_t n = 0;
    for (const Shard &shard : shards_)
        n += shard.state() != ShardState::Drained ? 1 : 0;
    return n;
}

void
ServingRouter::freshCycle()
{
    // run() clears requests_ but keeps outcomes_/stats_ readable; the
    // first submission after it starts a new accounting cycle.  Shard
    // damage persists: hardware does not resurrect between runs.
    if (!requests_.empty() || outcomes_.empty())
        return;
    outcomes_.clear();
    stats_ = RouterStats{};
    stats_.shards = config_.shards;
    stats_.slotsPerShard = config_.slotsPerShard;
}

EnqueueResult
ServingRouter::enqueue(RouterRequest request)
{
    freshCycle();
    const std::size_t id = requests_.size();

    // Validation that needs no queue state.
    RejectReason reason = validateRequestFields(
        request.prompt, request.decodeTokens, request.sampler,
        cfg_.vocabSize);
    if (reason == RejectReason::None) {
        // A budget below the minimum servable step count can never be
        // met (first token p steps after admission, last token
        // p + d - 1): refuse up front instead of admitting work that
        // is guaranteed to be cancelled.
        const std::size_t p = request.prompt.size();
        const std::size_t min_total = p + request.decodeTokens - 1;
        if ((request.ttftDeadlineSteps != 0 &&
             request.ttftDeadlineSteps < p) ||
            (request.deadlineSteps != 0 &&
             request.deadlineSteps < min_total))
            reason = RejectReason::DeadlineInfeasible;
    }
    if (reason == RejectReason::None &&
        !loraRegistry_.knows(request.tenantId))
        reason = RejectReason::UnknownTenant;
    if (reason == RejectReason::None && !requests_.empty() &&
        requests_.back().req.arrivalStep > request.arrivalStep)
        reason = RejectReason::ArrivalOrderViolation;
    if (reason == RejectReason::None) {
        // Bounded queues: backpressure by typed shedding, not abort.
        const auto &queue = queues_[classIndex(request.cls)];
        const std::size_t capacity =
            request.cls == RequestClass::Interactive
                ? config_.interactiveQueueCapacity
                : config_.batchQueueCapacity;
        if (queue.size() >= capacity)
            reason = RejectReason::QueueFull;
    }

    ReqState state;
    state.readyStep = request.arrivalStep;
    state.req = std::move(request);
    requests_.push_back(std::move(state));

    RouterOutcome out;
    out.id = id;
    out.tenantId = requests_.back().req.tenantId;
    out.cls = requests_.back().req.cls;
    out.arrivalStep = requests_.back().req.arrivalStep;
    outcomes_.push_back(std::move(out));
    ++stats_.requests;

    if (reason != RejectReason::None) {
        finish(id, RequestStatus::Shed, reason,
               requests_.back().req.arrivalStep);
        return {id, reason};
    }
    queues_[classIndex(requests_.back().req.cls)].push_back(id);
    return {id, RejectReason::None};
}

void
ServingRouter::scheduleFault(ShardFaultEvent event)
{
    freshCycle();
    hnlpu_assert(event.shard < shards_.size(),
                 "fault event shard ", event.shard, " out of range");
    hnlpu_assert(schedule_.empty() ||
                     schedule_.back().step <= event.step,
                 "fault schedule must be step-ordered");
    event.modelFaults.validate();
    event.linkFaults.validate();
    schedule_.push_back(std::move(event));
}

void
ServingRouter::finish(std::size_t id, RequestStatus status,
                      RejectReason reason, std::size_t step)
{
    ReqState &state = requests_[id];
    hnlpu_assert(!state.terminal, "request ", id, " finished twice");
    state.terminal = true;
    ++terminalCount_;

    RouterOutcome &out = outcomes_[id];
    out.status = status;
    out.reason = reason;
    out.finishStep = step;
    out.retries = state.attempts > 0 ? state.attempts - 1 : 0;

    switch (status) {
      case RequestStatus::Completed:
        ++stats_.completed;
        stats_.decodedTokens += out.tokens.size();
        break;
      case RequestStatus::Shed:
        ++stats_.shed;
        break;
      case RequestStatus::Cancelled:
        ++stats_.cancelled;
        break;
    }
    if (reason != RejectReason::None)
        ++stats_.byReason[std::size_t(reason)];

    // A fault recovery episode closes when every displaced request
    // reaches a terminal status again.
    for (std::size_t r = 0; r < openRecoveries_.size();) {
        OpenRecovery &rec = openRecoveries_[r];
        auto it = std::find(rec.waiting.begin(), rec.waiting.end(), id);
        if (it != rec.waiting.end())
            rec.waiting.erase(it);
        if (rec.waiting.empty()) {
            rec.record.recoveredStep = step;
            stats_.recoveries.push_back(rec.record);
            openRecoveries_.erase(openRecoveries_.begin() +
                                  std::ptrdiff_t(r));
        } else {
            ++r;
        }
    }
}

std::vector<std::size_t>
ServingRouter::probeGenerate(Shard &shard)
{
    // Engine::generate with greedy sampling, but through a one-slot
    // SlotBatch so the shard's prefix cache can skip prefill of the
    // (fixed) probe prompt on repeat probes.  Reuse cannot mask
    // divergence: a cached probe prefix was computed by this same
    // engine instance, so any weight corruption still reaches the
    // compared tokens through every sampled position.  Probes run the
    // base model (the golden transcript has no LoRA) in their own
    // reserved prefix-cache tenant (npos), so tenant traffic can
    // neither feed nor consume probe KV.
    SlotBatch probe(*shard.engine, 1, shard.prefix.get());
    if (probe.admit(0, config_.probePrompt, config_.probeTokens,
                    SamplerConfig{0.0, 0}, 0, npos, nullptr) > 0)
        ++stats_.probePrefixHits;
    for (;;) {
        for (SlotBatch::Event &event : probe.step(0)) {
            if (event.finished)
                return std::move(event.tokens);
        }
    }
}

bool
ServingRouter::probeShard(Shard &shard)
{
    ++stats_.probes;
    const obs::Sink *const sink = exec_.sink;
    obs::ScopedSpan span(sink ? sink->trace : nullptr, "router",
                         "router.probe");
    return probeGenerate(shard) == goldenProbe_;
}

bool
ServingRouter::probeShardNow(std::size_t shard_index)
{
    hnlpu_assert(shard_index < shards_.size(),
                 "shard index out of range");
    Shard &shard = shards_[shard_index];
    const bool ok = probeShard(shard);
    if (!ok && !shard.weightsCorrupt) {
        ++stats_.probeFailures;
        shard.weightsCorrupt = true;
    }
    return ok;
}

void
ServingRouter::failoverShard(std::size_t shard_index, std::size_t step)
{
    Shard &shard = shards_[shard_index];
    const obs::Sink *const sink = exec_.sink;
    obs::ScopedSpan span(sink ? sink->trace : nullptr, "router",
                         "router.retry");

    OpenRecovery recovery;
    recovery.record.faultStep = step;
    recovery.record.shard = shard_index;

    for (std::size_t s = 0; s < shard.batch.size(); ++s) {
        if (!shard.batch.busy(s))
            continue;
        const std::size_t id = shard.batch.requestId(s);
        // Partial decode from the failed shard is discarded: the retry
        // restarts prefill with a fresh Sampler(config, seed), so the
        // completed transcript is bit-identical to a clean solo
        // Engine::generate regardless of where the fault interrupted.
        shard.batch.release(s);
        ++stats_.failovers;

        ReqState &state = requests_[id];
        outcomes_[id].firstTokenStep = 0;

        if (state.attempts > config_.maxRetries) {
            finish(id, RequestStatus::Shed,
                   RejectReason::RetriesExhausted, step);
            continue;
        }
        ++stats_.retries;
        const std::size_t shift = state.attempts - 1;
        std::size_t delay = kBackoffCapSteps;
        if (shift < 8 * sizeof(std::size_t) &&
            (kBackoffBaseSteps << shift) >> shift == kBackoffBaseSteps)
            delay = std::min(kBackoffCapSteps, kBackoffBaseSteps << shift);
        state.readyStep = step + delay;
        recovery.record.inflight++;
        recovery.waiting.push_back(id);
        // Displaced requests re-enter at the FRONT of their class
        // queue (they were admitted earliest), in id order.
        auto &queue = queues_[classIndex(state.req.cls)];
        auto pos = queue.begin();
        while (pos != queue.end() && *pos < id &&
               std::find(recovery.waiting.begin(),
                         recovery.waiting.end(),
                         *pos) != recovery.waiting.end())
            ++pos;
        queue.insert(pos, id);
    }

    hnlpu_warn_ratelimited("router: shard ", shard_index,
                           " drained at step ", step, "; ",
                           recovery.record.inflight,
                           " in-flight request(s) failed over");
    if (recovery.waiting.empty()) {
        // Nothing was in flight: the episode recovers instantly.
        recovery.record.recoveredStep = step;
        stats_.recoveries.push_back(recovery.record);
    } else {
        openRecoveries_.push_back(std::move(recovery));
    }
}

void
ServingRouter::applyFaultEvents(std::size_t step)
{
    while (nextEvent_ < schedule_.size() &&
           schedule_[nextEvent_].step <= step) {
        const ShardFaultEvent &event = schedule_[nextEvent_++];
        Shard &shard = shards_[event.shard];
        ++stats_.faultsInjected;

        if (event.killLink && !shard.linkDead) {
            shard.fabric->markChipDead(1);
            shard.linkDead = true;
        }
        if (event.linkFaults.enabled()) {
            shard.fabric->setLinkFaults(event.linkFaults);
            // The CRC-retry storm is visible to the link layer itself:
            // the shard is immediately declared degraded (correct
            // tokens, reduced service) rather than waiting for
            // timeouts to pile up.
            shard.linkLossy = true;
        }
        if (event.modelFaults.enabled()) {
            // Rebuild the shard's weights with the plan burned in, on
            // the same engine configuration, then health-probe: a
            // spare-repaired plan is functionally identical to clean
            // weights, so in-flight KV caches stay valid and decode
            // continues bit-identically.  Any other plan fails the
            // probe and the shard is drained before it can sample a
            // single corrupted token.
            FaultInjector injector(event.modelFaults);
            shard.faultedWeights = std::make_unique<ModelWeights>(
                applyToModel(clean_, cfg_, injector, nullptr));
            shard.engine = makeEngine(*shard.faultedWeights);
            if (config_.prefixCache) {
                // The rebuilt engine owns a fresh block pool; the old
                // prefix cache indexes KV computed by the previous
                // weights and must never serve it again.  In-flight
                // slot caches keep the old pool alive through their
                // own shared_ptr until they drain.
                shard.prefix = std::make_shared<PrefixCache>(
                    shard.engine->kvPool(), exec_.sink);
            }
            shard.batch.rebind(*shard.engine, shard.prefix.get());
            if (!probeShard(shard)) {
                ++stats_.probeFailures;
                shard.weightsCorrupt = true;
            }
        }
        if (shard.state() == ShardState::Drained)
            failoverShard(event.shard, step);
    }
}

void
ServingRouter::sweepDeadlines(std::size_t step)
{
    // Cancel condition at the start of step s: a token sampled this
    // step is recorded at s + 1, so "no first token and
    // s >= arrival + ttftBudget" is exactly "firstTokenStep would
    // exceed the budget"; survivors therefore always meet their
    // budgets (same algebra for the total deadline).
    const obs::Sink *const sink = exec_.sink;
    obs::MetricsRegistry *const metrics = sink ? sink->metrics : nullptr;

    const auto expired = [&](std::size_t id) {
        const ReqState &state = requests_[id];
        const RouterOutcome &out = outcomes_[id];
        const RouterRequest &req = state.req;
        std::size_t deadline = npos;
        // firstTokenStep stays 0 until a first token is sampled.
        if (req.ttftDeadlineSteps != 0 && out.firstTokenStep == 0)
            deadline = req.arrivalStep + req.ttftDeadlineSteps;
        if (req.deadlineSteps != 0)
            deadline = std::min(deadline,
                                req.arrivalStep + req.deadlineSteps);
        if (deadline == npos || step < deadline)
            return false;
        if (metrics) {
            metrics
                ->latency("router.deadline_miss_steps", 0.0, 4096.0,
                          StepTimeline::kQuantileBins)
                ->observe(double(step + 1 - deadline));
        }
        return true;
    };

    // Queued requests (including ones waiting out a retry backoff).
    for (auto &queue : queues_) {
        for (auto it = queue.begin(); it != queue.end();) {
            if (expired(*it)) {
                const std::size_t id = *it;
                it = queue.erase(it);
                finish(id, RequestStatus::Cancelled,
                       RejectReason::DeadlineExpired, step);
            } else {
                ++it;
            }
        }
    }
    // In-flight requests: cancellation mid-decode reclaims the slot
    // this very step and keeps the tokens sampled so far.
    for (Shard &shard : shards_) {
        for (std::size_t s = 0; s < shard.batch.size(); ++s) {
            if (!shard.batch.busy(s) ||
                !expired(shard.batch.requestId(s)))
                continue;
            const std::size_t id = shard.batch.requestId(s);
            outcomes_[id].tokens = shard.batch.release(s);
            finish(id, RequestStatus::Cancelled,
                   RejectReason::DeadlineExpired, step);
        }
    }
}

void
ServingRouter::shedPolicy(std::size_t step)
{
    // Shard health is monotone within a run (hardware does not
    // resurrect), so shedding future arrivals once the fleet is out of
    // capacity is sound, terminates the run early, and keeps the
    // policy simple to state: batch first, interactive only when
    // nothing can serve at all.
    const auto shedQueue = [&](std::deque<std::size_t> &queue,
                               RejectReason reason) {
        while (!queue.empty()) {
            const std::size_t id = queue.front();
            queue.pop_front();
            finish(id, RequestStatus::Shed, reason, step);
        }
    };
    if (usableShards() == 0) {
        stats_.degradedMode = true;
        shedQueue(queues_[classIndex(RequestClass::Batch)],
                  RejectReason::NoUsableShard);
        shedQueue(queues_[classIndex(RequestClass::Interactive)],
                  RejectReason::NoUsableShard);
    } else if (healthyShards() == 0) {
        stats_.degradedMode = true;
        shedQueue(queues_[classIndex(RequestClass::Batch)],
                  RejectReason::DegradedShed);
    }
}

void
ServingRouter::dispatchSend(std::size_t shard_index,
                            std::size_t tokens)
{
    Shard &shard = shards_[shard_index];
    if (shard.linkDead)
        return;
    const std::uint64_t before = shard.fabric->retryTimeouts();
    shard.linkNow = shard.fabric->send(
        0, 1, Bytes(double(tokens) * kDispatchBytesPerToken),
        shard.linkNow);
    const std::uint64_t delta =
        shard.fabric->retryTimeouts() - before;
    if (delta == 0)
        return;
    shard.linkTimeouts += delta;
    stats_.linkTimeouts += delta;
    if (shard.linkTimeouts >= kLinkTimeoutLimit &&
        !shard.linkLossy) {
        shard.linkLossy = true;
        hnlpu_warn_ratelimited("router: shard ", shard_index,
                               " link hit ", shard.linkTimeouts,
                               " retry timeouts; marking degraded");
    }
}

void
ServingRouter::admit(std::size_t step)
{
    // Interactive drains before batch.  Within a class, FIFO over the
    // ready entries; backoff-delayed retries simply stay queued until
    // their readyStep.  Shard choice: least-busy healthy shard first
    // (lowest index on ties); interactive may fall back to degraded
    // shards, batch never runs on one.
    for (const RequestClass cls :
         {RequestClass::Interactive, RequestClass::Batch}) {
        auto &queue = queues_[classIndex(cls)];
        for (auto it = queue.begin(); it != queue.end();) {
            const std::size_t id = *it;
            ReqState &state = requests_[id];
            if (state.readyStep > step) {
                ++it;
                continue;
            }
            std::size_t best = npos;
            int best_rank = 3;
            std::size_t best_busy = 0;
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                const Shard &shard = shards_[s];
                if (shard.batch.freeSlots() == 0)
                    continue;
                const ShardState st = shard.state();
                int rank;
                if (st == ShardState::Healthy)
                    rank = 0;
                else if (st == ShardState::Degraded &&
                         cls == RequestClass::Interactive)
                    rank = 1;
                else
                    continue;
                const std::size_t busy = shard.batch.busySlots();
                if (rank < best_rank ||
                    (rank == best_rank && busy < best_busy)) {
                    best = s;
                    best_rank = rank;
                    best_busy = busy;
                }
            }
            if (best == npos)
                break; // no capacity for this class right now
            it = queue.erase(it);

            Shard &shard = shards_[best];
            const RouterRequest &req = state.req;
            // Resolve the tenant adapter per dispatch: the registry
            // owns the mapping, so a retried request serves the same
            // adapter on whichever shard it lands on.
            const std::size_t matched = shard.batch.admit(
                id, req.prompt, req.decodeTokens, req.sampler, req.seed,
                req.tenantId,
                loraRegistry_.adapterFor(req.tenantId,
                                         shard.engine->defaultLora()));
            if (shard.prefix) {
                if (matched > 0)
                    ++stats_.prefixHits;
                else
                    ++stats_.prefixMisses;
                stats_.prefixMatchedTokens += matched;
            }
            ++state.attempts;
            outcomes_[id].admitStep = step;
            outcomes_[id].shard = best;
            dispatchSend(best, req.prompt.size());
        }
    }
}

std::vector<RouterOutcome>
ServingRouter::run()
{
    const std::size_t n = requests_.size();

    const obs::Sink *const sink = exec_.sink;
    obs::Tracer *const trace = sink ? sink->trace : nullptr;
    obs::MetricsRegistry *const metrics = sink ? sink->metrics : nullptr;
    obs::Counter *c_steps = nullptr, *c_decoded = nullptr,
                 *c_retries = nullptr, *c_failovers = nullptr,
                 *c_shed = nullptr, *c_cancelled = nullptr,
                 *c_faults = nullptr;
    obs::Gauge *g_q_interactive = nullptr, *g_q_batch = nullptr,
               *g_healthy = nullptr, *g_degraded_mode = nullptr;
    if (metrics) {
        c_steps = metrics->counter("router.steps");
        c_decoded = metrics->counter("router.decoded_tokens");
        c_retries = metrics->counter("router.retries");
        c_failovers = metrics->counter("router.failovers");
        c_shed = metrics->counter("router.shed");
        c_cancelled = metrics->counter("router.cancelled");
        c_faults = metrics->counter("router.faults_injected");
        g_q_interactive =
            metrics->gauge("router.queue_depth_interactive");
        g_q_batch = metrics->gauge("router.queue_depth_batch");
        g_healthy = metrics->gauge("router.healthy_shards");
        g_degraded_mode = metrics->gauge("router.degraded_mode");
    }
    // Deltas against the pre-run counts so enqueue-time sheds are
    // mirrored too.
    std::size_t seen_shed = 0, seen_cancelled = 0, seen_retries = 0,
                seen_failovers = 0, seen_faults = 0;
    const auto mirrorCounters = [&] {
        if (!metrics)
            return;
        c_shed->add(stats_.shed - seen_shed);
        c_cancelled->add(stats_.cancelled - seen_cancelled);
        c_retries->add(stats_.retries - seen_retries);
        c_failovers->add(stats_.failovers - seen_failovers);
        c_faults->add(stats_.faultsInjected - seen_faults);
        seen_shed = stats_.shed;
        seen_cancelled = stats_.cancelled;
        seen_retries = stats_.retries;
        seen_failovers = stats_.failovers;
        seen_faults = stats_.faultsInjected;
    };

    // The router's step index is a sim::StepClock on the unified event
    // clock: idle jumps and per-step advances run the (private) event
    // queue through the step's tick window, keeping the step numbering
    // and the simulated timeline coherent.
    sim::Simulation stepSim;
    StepTimeline timeline(stepSim, trace, "router", "router.step.sim");
    std::vector<std::thread> workers;
    /** Each stepped shard's events this step (null: not stepped). */
    std::vector<std::vector<SlotBatch::Event> *> shard_events(
        shards_.size());
    while (terminalCount_ < n) {
        const std::size_t step = timeline.step();
        applyFaultEvents(step);
        sweepDeadlines(step);
        shedPolicy(step);
        admit(step);
        mirrorCounters();

        std::size_t batch = 0;
        for (const Shard &shard : shards_)
            batch += shard.batch.busySlots();
        if (metrics) {
            g_q_interactive->set(double(queues_[0].size()));
            g_q_batch->set(double(queues_[1].size()));
            g_healthy->set(double(healthyShards()));
            g_degraded_mode->set(stats_.degradedMode ? 1.0 : 0.0);
        }
        if (batch == 0) {
            if (terminalCount_ >= n)
                break;
            // Jump the idle clock to the next actionable step: the
            // earliest ready queue entry, clamped to the next fault
            // event so injections fire at their scheduled step.
            std::size_t target = npos;
            for (const auto &queue : queues_) {
                for (const std::size_t id : queue)
                    target = std::min(target,
                                      requests_[id].readyStep);
            }
            hnlpu_assert(target != npos,
                         "router stalled with ", n - terminalCount_,
                         " unfinished requests");
            if (nextEvent_ < schedule_.size())
                target = std::min(target,
                                  schedule_[nextEvent_].step);
            hnlpu_assert(target > step, "router clock failed to "
                                        "advance at step ", step);
            timeline.idleUntil(target);
            continue;
        }
        timeline.beginStep();

        std::string step_args;
        if (trace) {
            obs::JsonWriter w(0);
            w.beginObject().field("step", step).endObject();
            step_args = w.str();
        }
        {
            obs::ScopedSpan span(trace, "router", "router.step",
                                 std::move(step_args));
            workers.clear();
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                shard_events[s] = nullptr;
                if (shards_[s].batch.busySlots() == 0)
                    continue;
                workers.emplace_back([this, &shard_events, s, step] {
                    shard_events[s] = &shards_[s].batch.step(
                        step, "router", "router.shard_step");
                });
            }
            for (std::thread &worker : workers)
                worker.join();
        }
        ++stats_.executedSteps;
        if (c_steps)
            c_steps->add(1);

        // Sampled-token bookkeeping on the router thread, in
        // deterministic (shard, slot) order.
        for (std::vector<SlotBatch::Event> *events : shard_events) {
            if (!events)
                continue;
            if (c_decoded)
                c_decoded->add(events->size());
            for (SlotBatch::Event &event : *events) {
                RouterOutcome &out = outcomes_[event.id];
                if (event.firstToken)
                    out.firstTokenStep = step + 1;
                if (event.finished) {
                    out.tokens = std::move(event.tokens);
                    finish(event.id, RequestStatus::Completed,
                           RejectReason::None, step + 1);
                }
            }
        }
        mirrorCounters();
        timeline.endStep(batch);
    }
    stats_.wallSeconds = timeline.finish();
    mirrorCounters();

    // Wall-clock metrics of completed requests.
    for (RouterOutcome &out : outcomes_) {
        if (out.status != RequestStatus::Completed)
            continue;
        timeline.recordRequest(out);
        if (metrics) {
            metrics->latency("router.ttft_seconds")
                ->observe(out.ttftSeconds);
            metrics->latency("router.latency_seconds")
                ->observe(out.latencySeconds);
        }
    }
    stats_.goodputTokensPerSecond =
        stats_.wallSeconds > 0
            ? double(stats_.decodedTokens) / stats_.wallSeconds
            : 0.0;
    stats_.ttftP50Seconds = timeline.ttftQuantile(0.50);
    stats_.ttftP99Seconds = timeline.ttftQuantile(0.99);
    stats_.latencyP50Seconds = timeline.latencyQuantile(0.50);
    stats_.latencyP95Seconds = timeline.latencyQuantile(0.95);
    for (RecoveryRecord &rec : stats_.recoveries) {
        rec.recoverySeconds = timeline.wallAt(rec.recoveredStep) -
                              timeline.wallAt(rec.faultStep);
    }
    hnlpu_assert(openRecoveries_.empty(),
                 "router finished with an open recovery episode");

    // The cycle is served; a following enqueue starts a fresh one.
    // Shard damage persists (hardware does not resurrect).
    std::vector<RouterOutcome> served = outcomes_;
    requests_.clear();
    for (auto &queue : queues_)
        queue.clear();
    schedule_.clear();
    nextEvent_ = 0;
    terminalCount_ = 0;
    return served;
}

std::string
ServingRouter::metricsJson() const
{
    obs::JsonWriter w(2);
    w.beginObject();
    w.field("shards", stats_.shards);
    w.field("slots_per_shard", stats_.slotsPerShard);
    w.field("requests", stats_.requests);
    w.field("completed", stats_.completed);
    w.field("shed", stats_.shed);
    w.field("cancelled", stats_.cancelled);
    w.field("retries", stats_.retries);
    w.field("failovers", stats_.failovers);
    w.field("faults_injected", stats_.faultsInjected);
    w.field("probes", stats_.probes);
    w.field("probe_failures", stats_.probeFailures);
    w.field("prefix_hits", stats_.prefixHits);
    w.field("prefix_misses", stats_.prefixMisses);
    w.field("prefix_matched_tokens", stats_.prefixMatchedTokens);
    w.field("probe_prefix_hits", stats_.probePrefixHits);
    w.field("link_timeouts", stats_.linkTimeouts);
    w.field("degraded_mode", stats_.degradedMode);
    w.field("executed_steps", stats_.executedSteps);
    w.field("decoded_tokens", stats_.decodedTokens);
    w.field("wall_seconds", stats_.wallSeconds);
    w.field("goodput_tokens_per_second",
            stats_.goodputTokensPerSecond);
    w.field("shed_rate",
            stats_.requests > 0
                ? double(stats_.shed + stats_.cancelled) /
                      double(stats_.requests)
                : 0.0);
    w.key("ttft_seconds")
        .beginObject()
        .field("p50", stats_.ttftP50Seconds)
        .field("p99", stats_.ttftP99Seconds)
        .endObject();
    w.key("latency_seconds")
        .beginObject()
        .field("p50", stats_.latencyP50Seconds)
        .field("p95", stats_.latencyP95Seconds)
        .endObject();
    w.key("shed_by_reason").beginObject();
    for (std::size_t r = 1; r < kRejectReasonCount; ++r) {
        if (stats_.byReason[r] != 0)
            w.field(rejectReasonName(RejectReason(r)),
                    stats_.byReason[r]);
    }
    w.endObject();
    w.key("shard_states").beginArray();
    for (const Shard &shard : shards_)
        w.value(shardStateName(shard.state()));
    w.endArray();
    w.key("recoveries").beginArray();
    for (const RecoveryRecord &rec : stats_.recoveries) {
        w.beginObject()
            .field("fault_step", rec.faultStep)
            .field("shard", rec.shard)
            .field("inflight", rec.inflight)
            .field("recovered_step", rec.recoveredStep)
            .field("recovery_steps",
                   rec.recoveredStep - rec.faultStep)
            .field("recovery_seconds", rec.recoverySeconds)
            .endObject();
    }
    w.endArray();
    w.key("requests_detail").beginArray();
    for (const RouterOutcome &out : outcomes_) {
        w.beginObject();
        w.field("id", out.id);
        w.field("tenant_id", out.tenantId);
        w.field("class", requestClassName(out.cls));
        w.field("status", requestStatusName(out.status));
        w.field("reason", rejectReasonName(out.reason));
        w.field("arrival_step", out.arrivalStep);
        w.field("admit_step", out.admitStep);
        w.field("first_token_step", out.firstTokenStep);
        w.field("finish_step", out.finishStep);
        w.field("retries", out.retries);
        if (out.shard != npos)
            w.field("shard", out.shard);
        w.field("decoded_tokens", out.tokens.size());
        w.field("queue_seconds", out.queueSeconds);
        w.field("ttft_seconds", out.ttftSeconds);
        w.field("latency_seconds", out.latencySeconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace hnlpu::serve
