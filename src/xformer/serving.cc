#include "xformer/serving.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/core.hh"
#include "sim/stats.hh"

namespace hnlpu {

RejectReason
validateRequestFields(const std::vector<std::size_t> &prompt,
                      std::size_t decode_tokens,
                      const SamplerConfig &sampler,
                      std::size_t vocab_size)
{
    if (prompt.empty())
        return RejectReason::EmptyPrompt;
    if (decode_tokens == 0)
        return RejectReason::ZeroDecodeTokens;
    for (const std::size_t id : prompt) {
        if (id >= vocab_size)
            return RejectReason::TokenOutOfVocab;
    }
    if (!std::isfinite(sampler.temperature) ||
        sampler.temperature < 0.0) {
        hnlpu_warn_ratelimited(
            "rejecting sampler config: temperature ",
            sampler.temperature,
            " is not a finite non-negative value");
        return RejectReason::InvalidSampler;
    }
    if (sampler.topK > vocab_size) {
        hnlpu_warn_ratelimited("rejecting sampler config: top-k ",
                               sampler.topK, " exceeds vocab size ",
                               vocab_size);
        return RejectReason::InvalidSampler;
    }
    return RejectReason::None;
}

SlotBatch::SlotBatch(Engine &engine, std::size_t slots,
                     PrefixCache *prefix)
    : slots_(slots)
{
    hnlpu_assert(slots >= 1, "slot batch needs at least one slot");
    rebind(engine, prefix);
}

void
SlotBatch::rebind(Engine &engine, PrefixCache *prefix)
{
    hnlpu_assert(prefix == nullptr ||
                     prefix->pool().get() == engine.kvPool().get(),
                 "prefix cache bound to a different engine's KV pool");
    engine_ = &engine;
    prefix_ = prefix;
}

std::size_t
SlotBatch::busySlots() const
{
    std::size_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.busy ? 1 : 0;
    return n;
}

std::size_t
SlotBatch::admit(std::size_t id, const std::vector<std::size_t> &prompt,
                 std::size_t decode_tokens, const SamplerConfig &sampler,
                 std::uint64_t seed, std::size_t prefix_tenant,
                 const LoraSet *lora)
{
    auto free_slot = std::find_if(slots_.begin(), slots_.end(),
                                  [](const Slot &s) { return !s.busy; });
    hnlpu_assert(free_slot != slots_.end(), "admit into a full batch");
    Slot &slot = *free_slot;
    slot.busy = true;
    slot.id = id;
    slot.prompt = &prompt;
    slot.decodeTokens = decode_tokens;
    slot.prefixTenant = prefix_tenant;
    slot.fed = 0;
    slot.lora = lora;
    // Capacity-hinted to prompt + decode, so appends never reallocate.
    slot.cache.emplace(engine_->makeCache(prompt.size() + decode_tokens));
    slot.sampler.emplace(sampler, seed);
    slot.tokens.clear();
    if (!prefix_)
        return 0;
    // Matched positions skip prefill: the slot adopts the pinned
    // blocks and fed starts at the match length.
    PrefixCache::Match m =
        prefix_->lookup(prefix_tenant, prompt, prompt.size() - 1);
    if (m.matchedTokens > 0) {
        slot.cache->adoptPrefix(m.chain, m.matchedTokens);
        slot.fed = m.matchedTokens;
    }
    return m.matchedTokens;
}

std::vector<std::size_t>
SlotBatch::release(std::size_t slot_index)
{
    Slot &slot = slots_[slot_index];
    hnlpu_assert(slot.busy, "release of an idle slot");
    slot.busy = false;
    slot.cache.reset();
    slot.sampler.reset();
    return std::move(slot.tokens);
}

std::vector<SlotBatch::Event> &
SlotBatch::step(std::size_t clock_step, std::string_view span_cat,
                std::string_view span_name)
{
    tokens_.clear();
    caches_.clear();
    want_.clear();
    loras_.clear();
    active_.clear();
    events_.clear();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        Slot &slot = slots_[s];
        if (!slot.busy)
            continue;
        const std::size_t p = slot.prompt->size();
        tokens_.push_back(slot.fed < p ? (*slot.prompt)[slot.fed]
                                       : slot.tokens.back());
        caches_.push_back(&*slot.cache);
        // Early prefill skips the vocab-sized unembedding, just like
        // Engine::generate.
        want_.push_back(slot.fed + 1 >= p ? 1 : 0);
        loras_.push_back(slot.lora);
        active_.push_back(s);
    }
    hnlpu_assert(!tokens_.empty(), "slot batch step with no busy slot");

    const obs::Sink *const sink = engine_->execContext().sink;
    obs::Tracer *const trace =
        sink && !span_name.empty() ? sink->trace : nullptr;
    std::string args;
    if (trace) {
        obs::JsonWriter w(0);
        w.beginObject()
            .field("step", clock_step)
            .field("batch", tokens_.size())
            .endObject();
        args = w.str();
    }
    std::vector<Vec> logits;
    {
        obs::ScopedSpan span(trace, span_cat, span_name, std::move(args));
        logits =
            engine_->forwardTokenBatch(tokens_, caches_, want_, loras_);
    }

    for (std::size_t c = 0; c < active_.size(); ++c) {
        Slot &slot = slots_[active_[c]];
        ++slot.fed;
        // The forward that completed prefill indexed the full prompt:
        // publish it so later requests with the same prefix skip their
        // prefill.  (The tree's reference on the tail block makes this
        // slot's next decode append copy-on-write.)  A cache that
        // predates a rebind lives in the retired pool and cannot be
        // indexed by the new prefix cache.
        if (prefix_ && slot.fed == slot.prompt->size() &&
            slot.cache->poolHandle().get() == prefix_->pool().get())
            prefix_->insert(slot.prefixTenant, *slot.prompt,
                            *slot.cache);
        if (want_[c] == 0)
            continue;
        slot.tokens.push_back(slot.sampler->sample(logits[c]));
        Event &event = events_.emplace_back();
        event.id = slot.id;
        event.firstToken = slot.tokens.size() == 1;
        if (slot.tokens.size() == slot.decodeTokens) {
            event.finished = true;
            event.tokens = release(active_[c]);
        }
    }
    return events_;
}

StepTimeline::StepTimeline(sim::Simulation &sim, obs::Tracer *trace,
                           std::string cat, std::string sim_span)
    : clock_(sim), trace_(trace), cat_(std::move(cat)),
      simSpan_(std::move(sim_span)),
      t0_(std::chrono::steady_clock::now())
{
}

double
StepTimeline::elapsed() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
}

void
StepTimeline::idleUntil(std::size_t target)
{
    const double now = elapsed();
    while (clock_.step() < target) {
        stepWall_.push_back(now);
        clock_.advance();
    }
}

void
StepTimeline::beginStep()
{
    stepWall_.push_back(elapsed());
}

void
StepTimeline::endStep(std::size_t batch)
{
    // Simulated-time view of the executed step on the unified clock
    // (the front end's wall-time spans track host cost; this one places
    // the step on the shared simulated timeline).
    if (trace_) {
        obs::JsonWriter w(0);
        w.beginObject()
            .field("step", clock_.step())
            .field("batch", batch)
            .endObject();
        trace_->completeAt(cat_, simSpan_,
                           toSeconds(clock_.tickOf(clock_.step())) * 1e6,
                           toSeconds(clock_.ticksPerStep()) * 1e6, 0,
                           w.str());
    }
    clock_.advance();
}

double
StepTimeline::finish()
{
    stepWall_.push_back(elapsed());
    return stepWall_.back();
}

double
StepTimeline::wallAt(std::size_t step) const
{
    if (stepWall_.empty())
        return 0.0;
    return stepWall_[std::min(step, stepWall_.size() - 1)];
}

double
StepTimeline::ttftQuantile(double q) const
{
    return Histogram::fromSamples(ttfts_, kQuantileBins).quantile(q);
}

double
StepTimeline::latencyQuantile(double q) const
{
    return Histogram::fromSamples(latencies_, kQuantileBins).quantile(q);
}

ServingEngine::ServingEngine(Engine &engine, std::size_t slots,
                             PrefixCache *prefix)
    : engine_(engine), batch_(engine, slots, prefix)
{
}

EnqueueResult
ServingEngine::tryEnqueue(ServingRequest request)
{
    const RejectReason reason = validateRequestFields(
        request.prompt, request.decodeTokens, request.sampler,
        engine_.config().vocabSize);
    if (reason != RejectReason::None)
        return {0, reason};
    if (!loraRegistry_.knows(request.tenantId))
        return {0, RejectReason::UnknownTenant};
    if (!queue_.empty() &&
        queue_.back().arrivalStep > request.arrivalStep)
        return {0, RejectReason::ArrivalOrderViolation};
    queue_.push_back(std::move(request));
    return {nextId_++, RejectReason::None};
}

std::vector<ServingOutcome>
ServingEngine::run()
{
    sim::Simulation local;
    return runOn(local);
}

std::vector<ServingOutcome>
ServingEngine::runOn(sim::Simulation &sim)
{
    const std::size_t n = queue_.size();
    const std::size_t base_id = nextId_ - n;
    outcomes_.assign(n, ServingOutcome{});
    stats_ = ServingStats{};
    stats_.slots = batch_.size();
    stats_.requests = n;
    if (n == 0)
        return {};
    for (std::size_t i = 0; i < n; ++i) {
        outcomes_[i].id = base_id + i;
        outcomes_[i].tenantId = queue_[i].tenantId;
        outcomes_[i].arrivalStep = queue_[i].arrivalStep;
    }

    // Observability wiring from the engine's execution context: spans
    // and counters only read the computation, so the decoded tokens are
    // bit-identical with or without a sink (tests/test_obs.cc).
    const obs::Sink *const sink = engine_.execContext().sink;
    obs::MetricsRegistry *const metrics = sink ? sink->metrics : nullptr;
    obs::Counter *c_steps = nullptr, *c_forwards = nullptr,
                 *c_decoded = nullptr;
    obs::Gauge *g_queue_depth = nullptr, *g_busy_slots = nullptr;
    obs::LatencyHistogram *h_step = nullptr;
    if (metrics) {
        c_steps = metrics->counter("serving.steps");
        c_forwards = metrics->counter("serving.forwards");
        c_decoded = metrics->counter("serving.decoded_tokens");
        g_queue_depth = metrics->gauge("serving.queue_depth");
        g_busy_slots = metrics->gauge("serving.busy_slots");
        h_step = metrics->latency("serving.step_seconds");
    }

    std::size_t next = 0;     // next queue index to admit (FIFO)
    std::size_t finished = 0;
    // The step index lives on the unified simulation clock: advancing a
    // step runs the shared event queue through the step's tick window,
    // so co-scheduled events interleave deterministically with serving.
    StepTimeline timeline(sim, sink ? sink->trace : nullptr, "serving",
                          "serve.step.sim");

    while (finished < n) {
        // All slots idle and the next request is in the future: jump
        // the step clock to its arrival.
        if (batch_.busySlots() == 0) {
            hnlpu_assert(next < n, "serving run stalled with ",
                         n - finished, " unfinished requests");
            timeline.idleUntil(queue_[next].arrivalStep);
        }
        timeline.beginStep();
        const std::size_t step = timeline.step();

        // Admit arrived requests into free slots, FIFO.  A slot freed
        // at finishStep f is re-admissible at step f, matching
        // ContinuousBatcher's slot_free bookkeeping exactly.
        while (batch_.freeSlots() > 0 && next < n &&
               queue_[next].arrivalStep <= step) {
            const ServingRequest &req = queue_[next];
            // The tenant was checked at enqueue; the unregistered
            // default tenant 0 tracks the engine-default adapter
            // (whatever setLora() installed by now).
            const std::size_t matched = batch_.admit(
                next, req.prompt, req.decodeTokens, req.sampler,
                req.seed, req.tenantId,
                loraRegistry_.adapterFor(req.tenantId,
                                         engine_.defaultLora()));
            if (batch_.prefixCache()) {
                if (matched > 0)
                    ++stats_.prefixHits;
                else
                    ++stats_.prefixMisses;
                stats_.prefixMatchedTokens += matched;
            }
            outcomes_[next].admitStep = step;
            ++next;
        }

        const std::size_t batch = batch_.busySlots();
        if (metrics) {
            // Queue depth counts requests not yet admitted (whether or
            // not they have "arrived" on the step clock); busy slots is
            // exactly this step's batch size.
            g_queue_depth->set(double(n - next));
            g_busy_slots->set(double(batch));
            c_steps->add(1);
            c_forwards->add(batch);
        }
        const double step_t0 = timeline.elapsed();
        std::vector<SlotBatch::Event> &events =
            batch_.step(step, "serving", "serve.step");
        if (h_step)
            h_step->observe(timeline.elapsed() - step_t0);
        stats_.forwards += batch;
        ++stats_.executedSteps;

        for (SlotBatch::Event &event : events) {
            ServingOutcome &out = outcomes_[event.id];
            if (c_decoded)
                c_decoded->add(1);
            if (event.firstToken)
                out.firstTokenStep = step + 1;
            if (event.finished) {
                out.tokens = std::move(event.tokens);
                out.finishStep = step + 1;
                ++finished;
            }
        }
        timeline.endStep(batch);
    }
    stats_.wallSeconds = timeline.finish();

    Accumulator queue_acc;
    for (ServingOutcome &out : outcomes_) {
        timeline.recordRequest(out);
        const double service = timeline.wallAt(out.finishStep) -
                               timeline.wallAt(out.admitStep);
        out.decodeTokensPerSecond =
            service > 0 ? double(out.tokens.size()) / service : 0.0;
        queue_acc.add(out.queueSeconds);
        stats_.decodedTokens += out.tokens.size();
        if (metrics) {
            metrics->latency("serving.ttft_seconds")
                ->observe(out.ttftSeconds);
            metrics->latency("serving.latency_seconds")
                ->observe(out.latencySeconds);
        }
    }
    stats_.aggregateTokensPerSecond =
        stats_.wallSeconds > 0
            ? double(stats_.decodedTokens) / stats_.wallSeconds
            : 0.0;
    stats_.meanOccupancy =
        stats_.executedSteps > 0
            ? double(stats_.forwards) /
                  double(stats_.executedSteps * batch_.size())
            : 0.0;
    stats_.meanQueueSeconds = queue_acc.mean();
    stats_.ttftP50Seconds = timeline.ttftQuantile(0.50);
    stats_.ttftP95Seconds = timeline.ttftQuantile(0.95);
    stats_.latencyP50Seconds = timeline.latencyQuantile(0.50);
    stats_.latencyP95Seconds = timeline.latencyQuantile(0.95);

    queue_.clear();
    return outcomes_;
}

std::string
ServingEngine::metricsJson() const
{
    obs::JsonWriter w(2);
    w.beginObject();
    w.field("slots", stats_.slots);
    w.field("requests", stats_.requests);
    w.field("executed_steps", stats_.executedSteps);
    w.field("forwards", stats_.forwards);
    w.field("decoded_tokens", stats_.decodedTokens);
    w.field("wall_seconds", stats_.wallSeconds);
    w.field("aggregate_tokens_per_second",
            stats_.aggregateTokensPerSecond);
    w.field("mean_occupancy", stats_.meanOccupancy);
    w.field("mean_queue_seconds", stats_.meanQueueSeconds);
    w.key("ttft_seconds")
        .beginObject()
        .field("p50", stats_.ttftP50Seconds)
        .field("p95", stats_.ttftP95Seconds)
        .endObject();
    w.key("latency_seconds")
        .beginObject()
        .field("p50", stats_.latencyP50Seconds)
        .field("p95", stats_.latencyP95Seconds)
        .endObject();
    w.field("prefix_hits", stats_.prefixHits);
    w.field("prefix_misses", stats_.prefixMisses);
    w.field("prefix_matched_tokens", stats_.prefixMatchedTokens);
    w.key("requests_detail").beginArray();
    for (const ServingOutcome &out : outcomes_) {
        w.beginObject();
        w.field("id", out.id);
        w.field("tenant_id", out.tenantId);
        w.field("arrival_step", out.arrivalStep);
        w.field("admit_step", out.admitStep);
        w.field("first_token_step", out.firstTokenStep);
        w.field("finish_step", out.finishStep);
        w.field("decoded_tokens", out.tokens.size());
        w.field("queue_seconds", out.queueSeconds);
        w.field("ttft_seconds", out.ttftSeconds);
        w.field("latency_seconds", out.latencySeconds);
        w.field("decode_tokens_per_second", out.decodeTokensPerSecond);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace hnlpu
