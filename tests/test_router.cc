/**
 * @file
 * Fault-tolerant serving router tests: typed admission control,
 * deadline cancellation with slot reclaim, live fault injection during
 * serving (spare-repaired shards keep serving bit-identically,
 * unrepairable shards are drained and failed over), graceful
 * degradation policy, and scheduling determinism.
 *
 * Registered under ctest label `router`; scripts/tier1.sh runs it, like
 * every test, under ThreadSanitizer (run() steps shards on concurrent
 * threads) and AddressSanitizer + UndefinedBehaviorSanitizer (a
 * spare-repaired shard keeps decoding in-flight caches whose blocks
 * live in the retired engine's pool; backoff delays are shifts).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_plan.hh"
#include "fault/model_faults.hh"
#include "model/model_zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/router.hh"
#include "xformer/engine.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"

namespace hnlpu::serve {
namespace {

/** Clean solo-engine transcript the router must reproduce. */
std::vector<std::size_t>
solo(const TransformerConfig &cfg, const ModelWeights &weights,
     const RouterRequest &request)
{
    Engine engine(cfg, weights, ExecPath::Reference);
    Sampler sampler(request.sampler, request.seed);
    return engine.generate(request.prompt, request.decodeTokens,
                           sampler);
}

RouterRequest
makeRequest(std::vector<std::size_t> prompt, std::size_t decode,
            RequestClass cls = RequestClass::Batch,
            std::size_t arrival = 0)
{
    RouterRequest request;
    request.prompt = std::move(prompt);
    request.decodeTokens = decode;
    request.arrivalStep = arrival;
    request.cls = cls;
    return request;
}

// -- Admission control ----------------------------------------------------

TEST(Router, TypedRejectionsAtEnqueue)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 101);
    RouterConfig rc;
    rc.shards = 1;
    rc.batchQueueCapacity = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    EXPECT_EQ(router.enqueue(makeRequest({}, 3)).reason,
              RejectReason::EmptyPrompt);
    EXPECT_EQ(router.enqueue(makeRequest({1, 2}, 0)).reason,
              RejectReason::ZeroDecodeTokens);
    EXPECT_EQ(
        router.enqueue(makeRequest({1, cfg.vocabSize}, 3)).reason,
        RejectReason::TokenOutOfVocab);

    RouterRequest bad_sampler = makeRequest({1, 2}, 3);
    bad_sampler.sampler.temperature = -0.5;
    EXPECT_EQ(router.enqueue(bad_sampler).reason,
              RejectReason::InvalidSampler);
    bad_sampler.sampler.temperature = 1.0;
    bad_sampler.sampler.topK = cfg.vocabSize + 1;
    EXPECT_EQ(router.enqueue(bad_sampler).reason,
              RejectReason::InvalidSampler);

    // A TTFT budget below the prompt length, or a total budget below
    // prompt + decode - 1, can never be met.
    RouterRequest tight = makeRequest({1, 2, 3}, 4);
    tight.ttftDeadlineSteps = 2;
    EXPECT_EQ(router.enqueue(tight).reason,
              RejectReason::DeadlineInfeasible);
    tight.ttftDeadlineSteps = 0;
    tight.deadlineSteps = 5; // min servable is 3 + 4 - 1 = 6
    EXPECT_EQ(router.enqueue(tight).reason,
              RejectReason::DeadlineInfeasible);

    // Valid request fills the (capacity 1) batch queue...
    EXPECT_TRUE(router.enqueue(makeRequest({1, 2}, 2)).admitted());
    // ...so the next one is backpressured, not aborted.
    EXPECT_EQ(router.enqueue(makeRequest({3, 4}, 2)).reason,
              RejectReason::QueueFull);
    // The interactive queue is a separate bounded resource.
    EXPECT_TRUE(
        router.enqueue(makeRequest({5}, 2, RequestClass::Interactive))
            .admitted());

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 10u);
    std::size_t shed = 0, completed = 0;
    for (const RouterOutcome &out : outcomes) {
        if (out.status == RequestStatus::Shed) {
            ++shed;
            EXPECT_NE(out.reason, RejectReason::None);
        } else {
            ++completed;
            EXPECT_EQ(out.status, RequestStatus::Completed);
        }
    }
    EXPECT_EQ(shed, 8u);
    EXPECT_EQ(completed, 2u);
    EXPECT_EQ(router.stats().byReason[std::size_t(
                  RejectReason::QueueFull)],
              1u);
    EXPECT_EQ(router.stats().byReason[std::size_t(
                  RejectReason::InvalidSampler)],
              2u);
}

TEST(Router, ArrivalOrderViolationIsTyped)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 102);
    RouterConfig rc;
    rc.shards = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);
    EXPECT_TRUE(
        router.enqueue(makeRequest({1}, 1, RequestClass::Batch, 5))
            .admitted());
    EXPECT_EQ(
        router.enqueue(makeRequest({2}, 1, RequestClass::Batch, 4))
            .reason,
        RejectReason::ArrivalOrderViolation);
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, RequestStatus::Completed);
    EXPECT_EQ(outcomes[1].status, RequestStatus::Shed);
}

// -- Clean multi-shard serving --------------------------------------------

TEST(Router, CleanRunBitIdenticalToSoloGenerate)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 103);
    RouterConfig rc;
    rc.shards = 3;
    rc.slotsPerShard = 2;
    ExecOptions exec;
    exec.threads = 2; // engine pools under the router's shard threads
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, exec, rc);

    std::vector<RouterRequest> trace;
    trace.push_back(makeRequest({1, 5, 9}, 4));
    trace.push_back(
        makeRequest({2}, 6, RequestClass::Interactive));
    trace.back().sampler = {0.8, 5};
    trace.back().seed = 11;
    trace.push_back(makeRequest({7, 3}, 2));
    trace.push_back(makeRequest({4, 8, 12, 16}, 5));
    trace.back().sampler = {1.1, 0};
    trace.back().seed = 23;
    trace.push_back(
        makeRequest({6}, 3, RequestClass::Interactive, 2));
    trace.push_back(makeRequest({10, 11}, 4, RequestClass::Batch, 4));

    for (const RouterRequest &request : trace)
        ASSERT_TRUE(router.enqueue(request).admitted());
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, RequestStatus::Completed);
        EXPECT_EQ(outcomes[i].tokens, solo(cfg, clean, trace[i]))
            << "request " << i;
        EXPECT_EQ(outcomes[i].retries, 0u);
    }
    EXPECT_EQ(router.stats().completed, trace.size());
    EXPECT_EQ(router.stats().failovers, 0u);
    EXPECT_FALSE(router.degradedMode());
}

TEST(Router, OneShardCleanRouterMatchesServingEngineStepForStep)
{
    // Batch-only traffic without deadlines or faults leaves a one-shard
    // router no policy to apply, so it must schedule exactly like a
    // ServingEngine: both step the same SlotBatch.  A shared prompt
    // prefix with the prefix cache on makes admissions both hit and
    // miss, and two slots make requests queue.
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 131);
    constexpr std::size_t kSlots = 2;
    ExecOptions exec;
    exec.kvBlockTokens = 4;

    const std::vector<std::size_t> shared = {3, 1, 4, 1, 5, 9, 2, 6, 5};
    const std::size_t arrivals[] = {0, 0, 5, 12, 12, 13, 20, 30};
    std::vector<RouterRequest> trace;
    for (std::size_t i = 0; i < std::size(arrivals); ++i) {
        std::vector<std::size_t> prompt = shared;
        for (std::size_t t = 0; t < 1 + i % 3; ++t)
            prompt.push_back((7 + 5 * i + t) % cfg.vocabSize);
        trace.push_back(makeRequest(std::move(prompt), 2 + i % 4,
                                    RequestClass::Batch, arrivals[i]));
        trace.back().sampler = {0.8, 0};
        trace.back().seed = 500 + i;
    }

    Engine engine(cfg, clean, ExecPath::Reference, 8, exec);
    PrefixCache prefix(engine.kvPool());
    ServingEngine serving(engine, kSlots, &prefix);
    for (const RouterRequest &req : trace) {
        ServingRequest sr;
        sr.prompt = req.prompt;
        sr.decodeTokens = req.decodeTokens;
        sr.arrivalStep = req.arrivalStep;
        sr.sampler = req.sampler;
        sr.seed = req.seed;
        ASSERT_TRUE(serving.tryEnqueue(sr).admitted());
    }
    const auto served = serving.run();

    RouterConfig rc;
    rc.shards = 1;
    rc.slotsPerShard = kSlots;
    rc.prefixCache = true;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, exec, rc);
    for (const RouterRequest &req : trace)
        ASSERT_TRUE(router.enqueue(req).admitted());
    const auto routed = router.run();

    ASSERT_EQ(served.size(), trace.size());
    ASSERT_EQ(routed.size(), trace.size());
    bool queued = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(routed[i].status, RequestStatus::Completed);
        EXPECT_EQ(routed[i].tokens, served[i].tokens) << "request " << i;
        EXPECT_EQ(routed[i].admitStep, served[i].admitStep)
            << "request " << i;
        EXPECT_EQ(routed[i].firstTokenStep, served[i].firstTokenStep)
            << "request " << i;
        EXPECT_EQ(routed[i].finishStep, served[i].finishStep)
            << "request " << i;
        queued = queued || served[i].admitStep > served[i].arrivalStep;
    }
    EXPECT_TRUE(queued);
    const ServingStats &ss = serving.stats();
    const RouterStats &rs = router.stats();
    EXPECT_GT(ss.prefixHits, 0u);
    EXPECT_GT(ss.prefixMisses, 0u);
    EXPECT_EQ(rs.prefixHits, ss.prefixHits);
    EXPECT_EQ(rs.prefixMisses, ss.prefixMisses);
    EXPECT_EQ(rs.prefixMatchedTokens, ss.prefixMatchedTokens);
    EXPECT_EQ(rs.executedSteps, ss.executedSteps);
}

// -- Live fault injection during serving ----------------------------------

TEST(Router, SpareRepairedFaultKeepsShardServingBitIdentical)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 104);

    // Premise: with ample spare rows and no stuck bits, every dead row
    // is repaired and the rebuilt weights are functionally identical.
    FaultModelParams repairable;
    repairable.seed = 21;
    repairable.deadRowRate = 0.02;
    repairable.spareRows = 64;
    {
        FaultInjector injector(repairable);
        ModelFaultStats fstats;
        const auto twin = applyToModel(clean, cfg, injector, &fstats);
        ASSERT_GT(fstats.repairedRows, 0u);
        ASSERT_EQ(fstats.deadRows, 0u);
        ASSERT_EQ(fstats.stuckBits, 0u);
    }

    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    std::vector<RouterRequest> trace;
    for (std::size_t i = 0; i < 4; ++i)
        trace.push_back(makeRequest({1 + i, 2, 3}, 6));
    for (const RouterRequest &request : trace)
        ASSERT_TRUE(router.enqueue(request).admitted());

    ShardFaultEvent event;
    event.step = 3; // mid-decode of the first wave
    event.shard = 0;
    event.modelFaults = repairable;
    router.scheduleFault(event);

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, RequestStatus::Completed);
        EXPECT_EQ(outcomes[i].tokens, solo(cfg, clean, trace[i]))
            << "request " << i;
    }
    // The shard probed bit-identical and kept serving: no failover,
    // no retry, still healthy.
    EXPECT_EQ(router.shardState(0), ShardState::Healthy);
    EXPECT_EQ(router.stats().faultsInjected, 1u);
    EXPECT_EQ(router.stats().probeFailures, 0u);
    EXPECT_EQ(router.stats().failovers, 0u);
    EXPECT_FALSE(router.degradedMode());
}

TEST(Router, UnrepairableFaultDrainsShardAndFailsOverBitIdentical)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 105);

    FaultModelParams corrupting;
    corrupting.seed = 9;
    corrupting.stuckBitRate = 0.05;
    corrupting.deadRowRate = 0.05;
    corrupting.spareRows = 0;

    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 1;

    // Premise: the corrupted twin diverges on the router's greedy
    // health probe, so the probe must detect it.
    {
        FaultInjector injector(corrupting);
        const auto twin = applyToModel(clean, cfg, injector, nullptr);
        Engine clean_engine(cfg, clean, ExecPath::Reference);
        Engine twin_engine(cfg, twin, ExecPath::Reference);
        Sampler g1(SamplerConfig{0.0, 0}, 0);
        Sampler g2(SamplerConfig{0.0, 0}, 0);
        ASSERT_NE(
            twin_engine.generate(rc.probePrompt, rc.probeTokens, g2),
            clean_engine.generate(rc.probePrompt, rc.probeTokens, g1));
    }

    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    const obs::Sink sink{&metrics, &tracer};
    ExecOptions exec;
    exec.sink = &sink;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, exec, rc);

    std::vector<RouterRequest> trace;
    for (std::size_t i = 0; i < 4; ++i)
        trace.push_back(makeRequest({1 + i, 2, 3}, 6));
    for (const RouterRequest &request : trace)
        ASSERT_TRUE(router.enqueue(request).admitted());

    ShardFaultEvent event;
    event.step = 4; // shard 0 is mid-decode on request 0
    event.shard = 0;
    event.modelFaults = corrupting;
    router.scheduleFault(event);

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, RequestStatus::Completed)
            << "request " << i;
        EXPECT_EQ(outcomes[i].tokens, solo(cfg, clean, trace[i]))
            << "request " << i;
        // Everything lands on the surviving shard eventually; the
        // displaced request reports its retry.
        EXPECT_EQ(outcomes[i].shard, 1u) << "request " << i;
    }
    EXPECT_EQ(outcomes[0].retries, 1u);

    const RouterStats &stats = router.stats();
    EXPECT_EQ(router.shardState(0), ShardState::Drained);
    EXPECT_EQ(router.shardState(1), ShardState::Healthy);
    EXPECT_EQ(stats.faultsInjected, 1u);
    EXPECT_EQ(stats.probeFailures, 1u);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_FALSE(stats.degradedMode);
    ASSERT_EQ(stats.recoveries.size(), 1u);
    EXPECT_EQ(stats.recoveries[0].shard, 0u);
    EXPECT_EQ(stats.recoveries[0].inflight, 1u);
    EXPECT_GE(stats.recoveries[0].recoveredStep,
              stats.recoveries[0].faultStep);

    // Observability mirrors the stats and the step loop emits spans.
    EXPECT_EQ(metrics.counter("router.failovers")->value(),
              stats.failovers);
    EXPECT_EQ(metrics.counter("router.retries")->value(),
              stats.retries);
    EXPECT_EQ(metrics.counter("router.faults_injected")->value(),
              stats.faultsInjected);
    EXPECT_GT(tracer.eventCount(), 0u);
    const std::string trace_json = tracer.toJson();
    EXPECT_NE(trace_json.find("router.step"), std::string::npos);
    EXPECT_NE(trace_json.find("router.retry"), std::string::npos);
}

TEST(Router, RetryBudgetZeroShedsDisplacedRequests)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 106);
    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 1;
    rc.maxRetries = 0;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    ASSERT_TRUE(router.enqueue(makeRequest({1, 2}, 6)).admitted());
    ASSERT_TRUE(router.enqueue(makeRequest({3, 4}, 6)).admitted());

    ShardFaultEvent event;
    event.step = 3;
    event.shard = 0;
    event.killLink = true; // severed CXL link drains the shard
    router.scheduleFault(event);

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, RequestStatus::Shed);
    EXPECT_EQ(outcomes[0].reason, RejectReason::RetriesExhausted);
    EXPECT_EQ(outcomes[1].status, RequestStatus::Completed);
    EXPECT_EQ(router.shardState(0), ShardState::Drained);
    EXPECT_EQ(router.stats().failovers, 1u);
    EXPECT_EQ(router.stats().retries, 0u);
}

// -- Deadlines ------------------------------------------------------------

TEST(Router, DeadlinesCancelQueuedAndMidDecodeAndReclaimSlots)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 107);
    RouterConfig rc;
    rc.shards = 1;
    rc.slotsPerShard = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    // r0 occupies the only slot for steps 0..6 (prompt 2 + decode 6).
    const RouterRequest r0 = makeRequest({1, 2}, 6);
    // r1's first token can only come at step 8, past its TTFT budget:
    // cancelled while queued.
    RouterRequest r1 = makeRequest({3, 4}, 2);
    r1.ttftDeadlineSteps = 4;
    // r2 is admitted at step 7 and expires mid-decode at step 9 with a
    // partial transcript; its slot is reclaimed the same step.
    RouterRequest r2 = makeRequest({5, 6}, 6);
    r2.deadlineSteps = 9;
    // r3 then completes on the reclaimed slot.
    const RouterRequest r3 = makeRequest({7, 8}, 2);

    for (const RouterRequest &request : {r0, r1, r2, r3})
        ASSERT_TRUE(router.enqueue(request).admitted());
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 4u);

    EXPECT_EQ(outcomes[0].status, RequestStatus::Completed);
    EXPECT_EQ(outcomes[0].tokens, solo(cfg, clean, r0));

    EXPECT_EQ(outcomes[1].status, RequestStatus::Cancelled);
    EXPECT_EQ(outcomes[1].reason, RejectReason::DeadlineExpired);
    EXPECT_TRUE(outcomes[1].tokens.empty());
    EXPECT_EQ(outcomes[1].finishStep, 4u);

    EXPECT_EQ(outcomes[2].status, RequestStatus::Cancelled);
    EXPECT_EQ(outcomes[2].reason, RejectReason::DeadlineExpired);
    EXPECT_LT(outcomes[2].tokens.size(), r2.decodeTokens);
    EXPECT_EQ(outcomes[2].finishStep, 9u);

    EXPECT_EQ(outcomes[3].status, RequestStatus::Completed);
    EXPECT_EQ(outcomes[3].tokens, solo(cfg, clean, r3));

    EXPECT_EQ(router.stats().cancelled, 2u);
    EXPECT_EQ(router.stats().byReason[std::size_t(
                  RejectReason::DeadlineExpired)],
              2u);
}

TEST(Router, DeadlineSurvivorsMeetTheirBudgets)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 108);
    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 2;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    std::vector<RouterRequest> trace;
    for (std::size_t i = 0; i < 6; ++i) {
        RouterRequest request = makeRequest({1 + i, 2}, 3);
        request.ttftDeadlineSteps = 12;
        request.deadlineSteps = 20;
        trace.push_back(request);
        ASSERT_TRUE(router.enqueue(request).admitted());
    }
    const auto outcomes = router.run();
    for (const RouterOutcome &out : outcomes) {
        if (out.status != RequestStatus::Completed)
            continue;
        EXPECT_LE(out.firstTokenStep, out.arrivalStep + 12);
        EXPECT_LE(out.finishStep, out.arrivalStep + 20);
    }
}

// -- Graceful degradation -------------------------------------------------

TEST(Router, DegradedModeShedsBatchFirstAndServesInteractive)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 109);
    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    const RouterRequest interactive =
        makeRequest({1, 2}, 3, RequestClass::Interactive);
    const RouterRequest batch =
        makeRequest({3, 4}, 3, RequestClass::Batch);
    ASSERT_TRUE(router.enqueue(interactive).admitted());
    ASSERT_TRUE(router.enqueue(batch).admitted());

    // Both links turn lossy before the first step: no healthy shard
    // remains, but both still produce correct tokens.
    for (std::size_t shard = 0; shard < 2; ++shard) {
        ShardFaultEvent event;
        event.step = 0;
        event.shard = shard;
        event.linkFaults.seed = 7;
        event.linkFaults.retryProbability = 0.5;
        router.scheduleFault(event);
    }

    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, RequestStatus::Completed);
    EXPECT_EQ(outcomes[0].tokens, solo(cfg, clean, interactive));
    EXPECT_EQ(outcomes[1].status, RequestStatus::Shed);
    EXPECT_EQ(outcomes[1].reason, RejectReason::DegradedShed);
    EXPECT_TRUE(router.degradedMode());
    EXPECT_EQ(router.shardState(0), ShardState::Degraded);
    EXPECT_EQ(router.shardState(1), ShardState::Degraded);
}

TEST(Router, NoUsableShardShedsEverythingTyped)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 110);
    RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);

    ASSERT_TRUE(
        router.enqueue(makeRequest({1}, 2, RequestClass::Interactive))
            .admitted());
    ASSERT_TRUE(router.enqueue(makeRequest({2}, 2)).admitted());
    for (std::size_t shard = 0; shard < 2; ++shard) {
        ShardFaultEvent event;
        event.step = 0;
        event.shard = shard;
        event.killLink = true;
        router.scheduleFault(event);
    }
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const RouterOutcome &out : outcomes) {
        EXPECT_EQ(out.status, RequestStatus::Shed);
        EXPECT_EQ(out.reason, RejectReason::NoUsableShard);
    }
    EXPECT_TRUE(router.degradedMode());
    EXPECT_EQ(router.stats().completed, 0u);
}

// -- Determinism ----------------------------------------------------------

TEST(Router, StepClockAndTokensDeterministicAcrossRuns)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 111);

    FaultModelParams corrupting;
    corrupting.seed = 9;
    corrupting.stuckBitRate = 0.05;
    corrupting.spareRows = 0;

    const auto runOnce = [&] {
        RouterConfig rc;
        rc.shards = 2;
        rc.slotsPerShard = 2;
        ExecOptions exec;
        exec.threads = 2;
        ServingRouter router(cfg, clean, ExecPath::Reference, 8, exec,
                             rc);
        for (std::size_t i = 0; i < 6; ++i) {
            RouterRequest request = makeRequest(
                {1 + i, 3, 5}, 4,
                i % 2 ? RequestClass::Interactive
                      : RequestClass::Batch,
                i / 2);
            request.seed = i;
            request.sampler = {0.7, 4};
            EXPECT_TRUE(router.enqueue(request).admitted());
        }
        ShardFaultEvent event;
        event.step = 3;
        event.shard = 1;
        event.modelFaults = corrupting;
        router.scheduleFault(event);
        return router.run();
    };

    const auto a = runOnce();
    const auto b = runOnce();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tokens, b[i].tokens) << "request " << i;
        EXPECT_EQ(int(a[i].status), int(b[i].status));
        EXPECT_EQ(a[i].admitStep, b[i].admitStep);
        EXPECT_EQ(a[i].firstTokenStep, b[i].firstTokenStep);
        EXPECT_EQ(a[i].finishStep, b[i].finishStep);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].retries, b[i].retries);
    }
}

// -- Metrics JSON ---------------------------------------------------------

TEST(Router, MetricsJsonContainsSchemaKeys)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 112);
    RouterConfig rc;
    rc.shards = 1;
    ServingRouter router(cfg, clean, ExecPath::Reference, 8, {}, rc);
    ASSERT_TRUE(router.enqueue(makeRequest({1, 2}, 2)).admitted());
    (void)router.run();
    const std::string json = router.metricsJson();
    for (const char *key :
         {"goodput_tokens_per_second", "shed_rate", "ttft_seconds",
          "shed_by_reason", "shard_states", "recoveries",
          "requests_detail"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

} // namespace
} // namespace hnlpu::serve
