/**
 * @file
 * Tests for the fault-injection and graceful-degradation subsystem:
 * deterministic fault plans, dead-row masking on both execution paths,
 * spare-neuron repair, repair-aware yield, lossy/degraded fabric
 * behavior and degraded pipeline simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "dataflow/distributed.hh"
#include "econ/nre.hh"
#include "fault/fault_plan.hh"
#include "fault/model_faults.hh"
#include "fault/repair.hh"
#include "litho/wafer.hh"
#include "model/model_zoo.hh"
#include "noc/collectives.hh"
#include "pipeline/pipeline_sim.hh"
#include "xformer/engine.hh"
#include "xformer/sampler.hh"

namespace hnlpu {
namespace {

// -- fault plans ----------------------------------------------------------

TEST(FaultPlan, SameSeedSamePlanByteForByte)
{
    FaultModelParams params;
    params.seed = 1234;
    params.stuckBitRate = 0.01;
    params.deadRowRate = 0.05;
    const FaultInjector a(params);
    const FaultInjector b(params);

    const auto plan_a = a.plan("block0.wq", 64, 32);
    const auto plan_b = b.plan("block0.wq", 64, 32);
    EXPECT_EQ(plan_a.serialize(), plan_b.serialize());
    EXPECT_EQ(plan_a.fingerprint(), plan_b.fingerprint());
    EXPECT_FALSE(plan_a.empty());

    params.seed = 1235;
    const FaultInjector c(params);
    EXPECT_NE(c.plan("block0.wq", 64, 32).serialize(),
              plan_a.serialize());
    // Distinct arrays get independent streams.
    EXPECT_NE(a.plan("block0.wk", 64, 32).serialize(),
              plan_a.serialize());
}

TEST(FaultPlan, PlanIndependentOfGenerationOrder)
{
    FaultModelParams params;
    params.seed = 7;
    params.stuckBitRate = 0.02;
    const FaultInjector inj(params);
    const auto direct = inj.plan("unembedding", 64, 32);
    inj.plan("block0.wq", 64, 32); // interleave another array
    const auto again = inj.plan("unembedding", 64, 32);
    EXPECT_EQ(direct.serialize(), again.serialize());
}

TEST(FaultPlan, DisabledInjectorProducesEmptyPlans)
{
    const FaultInjector inj(FaultModelParams{});
    const auto plan = inj.plan("block0.wq", 64, 64);
    EXPECT_TRUE(plan.empty());
    EXPECT_TRUE(plan.stuckBits.empty());
    EXPECT_TRUE(plan.deadRows.empty());
}

TEST(FaultPlan, RateOneKillsEveryRow)
{
    FaultModelParams params;
    params.deadRowRate = 1.0;
    const FaultInjector inj(params);
    const auto plan = inj.plan("x", 16, 8);
    EXPECT_EQ(plan.deadRows.size(), 16u);
}

TEST(FaultPlan, RejectsOutOfRangeRates)
{
    FaultModelParams params;
    params.stuckBitRate = 1.5;
    EXPECT_DEATH(FaultInjector{params}, "stuckBitRate");
    params.stuckBitRate = 0.0;
    params.deadRowRate = -0.1;
    EXPECT_DEATH(FaultInjector{params}, "deadRowRate");
}

TEST(FaultPlan, ApplyToCodesSetsAndClearsBits)
{
    std::vector<Fp4> codes(4, Fp4::fromCode(0));
    ArrayFaultPlan plan;
    plan.rows = 2;
    plan.cols = 2;
    plan.stuckBits.push_back({0, 1, 3, true});  // set sign bit
    plan.stuckBits.push_back({1, 0, 0, false}); // clear already-0 bit
    const std::size_t changed = plan.applyToCodes(codes);
    EXPECT_EQ(changed, 1u); // the clear was a no-op
    EXPECT_EQ(codes[1].code(), 0x8);
    EXPECT_EQ(codes[2].code(), 0x0);
}

TEST(FaultPlan, SpareRepairTakesLowestRowsAndDropsTheirStuckBits)
{
    ArrayFaultPlan plan;
    plan.rows = 8;
    plan.cols = 4;
    plan.deadRows = {1, 3, 6};
    plan.stuckBits.push_back({1, 0, 2, true});
    plan.stuckBits.push_back({5, 2, 1, true});
    const std::size_t repaired = applySpareRepair(plan, 2);
    EXPECT_EQ(repaired, 2u);
    EXPECT_EQ(plan.repairedRows, (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(plan.deadRows, (std::vector<std::uint32_t>{6}));
    ASSERT_EQ(plan.stuckBits.size(), 1u);
    EXPECT_EQ(plan.stuckBits[0].row, 5u);
}

TEST(FaultPlan, MoreSparesNeverMoreDeadRows)
{
    FaultModelParams params;
    params.seed = 42;
    params.deadRowRate = 0.3;
    std::size_t previous = ~std::size_t(0);
    for (std::size_t spares : {0u, 1u, 2u, 4u, 8u}) {
        params.spareRows = spares;
        const FaultInjector inj(params);
        const auto plan = inj.plan("x", 64, 8);
        EXPECT_LE(plan.deadRows.size(), previous);
        previous = plan.deadRows.size();
    }
}

// -- dead rows in HN arrays and Linear ------------------------------------

TEST(FaultLinear, DeadRowsReadZeroOnBothPaths)
{
    const Linear clean = Linear::random(16, 32, 5);
    const std::vector<std::uint32_t> dead{2, 9};
    const Linear faulty(clean.codes(), 16, 32, dead);

    Vec x(32);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::sin(double(i) + 1.0);

    for (ExecPath path : {ExecPath::Reference, ExecPath::Hardwired}) {
        const Vec y_clean = clean.forward(x, ExecContext{path});
        const Vec y_faulty = faulty.forward(x, ExecContext{path});
        for (std::uint32_t r : dead)
            EXPECT_EQ(y_faulty[r], 0.0);
        for (std::size_t r = 0; r < 16; ++r) {
            if (std::find(dead.begin(), dead.end(), r) == dead.end()) {
                EXPECT_EQ(y_faulty[r], y_clean[r]) << "row " << r;
            }
        }
    }
}

TEST(FaultLinear, SliceCarriesDeadRowsAtLocalIndices)
{
    const Linear clean = Linear::random(16, 8, 11);
    const Linear faulty(clean.codes(), 16, 8, {3, 10});
    const Linear shard = faulty.slice(8, 8, 0, 8);
    EXPECT_EQ(shard.deadRows(), (std::vector<std::uint32_t>{2}));
}

TEST(FaultLinear, InjectorApplicationIsDeterministic)
{
    FaultModelParams params;
    params.seed = 77;
    params.stuckBitRate = 0.02;
    params.deadRowRate = 0.1;
    const FaultInjector inj(params);
    const Linear clean = Linear::random(24, 16, 3);
    const Linear a = applyToLinear(inj, clean, "p");
    const Linear b = applyToLinear(inj, clean, "p");
    ASSERT_EQ(a.codes().size(), b.codes().size());
    for (std::size_t i = 0; i < a.codes().size(); ++i)
        EXPECT_EQ(a.codes()[i].code(), b.codes()[i].code());
    EXPECT_EQ(a.deadRows(), b.deadRows());
}

TEST(FaultLinear, EnoughSparesRestoreCleanBehavior)
{
    FaultModelParams params;
    params.seed = 9;
    params.deadRowRate = 0.25;
    params.spareRows = 1024; // more spares than rows
    const FaultInjector inj(params);
    const Linear clean = Linear::random(24, 16, 3);
    ModelFaultStats stats;
    const Linear repaired = applyToLinear(inj, clean, "p", &stats);
    EXPECT_GT(stats.repairedRows, 0u);
    EXPECT_EQ(stats.deadRows, 0u);
    EXPECT_TRUE(repaired.deadRows().empty());
    Vec x(16, 1.0);
    const Vec y_clean = clean.forward(x, ExecContext{ExecPath::Reference});
    const Vec y_rep =
        repaired.forward(x, ExecContext{ExecPath::Reference});
    for (std::size_t i = 0; i < y_clean.size(); ++i)
        EXPECT_EQ(y_clean[i], y_rep[i]);
}

// -- engine-level fault behavior ------------------------------------------

class FaultEngineTest : public ::testing::Test
{
  protected:
    FaultEngineTest()
        : cfg_(tinyTestModel()),
          weights_(ModelWeights::randomInit(cfg_, 99))
    {
    }

    FaultInjector
    injector(std::uint64_t seed, std::size_t spares = 0) const
    {
        FaultModelParams params;
        params.seed = seed;
        params.stuckBitRate = 0.01;
        params.deadRowRate = 0.02;
        params.spareRows = spares;
        return FaultInjector(params);
    }

    Vec
    logitsAfter(Engine &engine, const std::vector<std::size_t> &tokens)
    {
        KvCache cache = engine.makeCache();
        Vec logits;
        for (std::size_t token : tokens)
            logits = engine.forwardToken(token, cache);
        return logits;
    }

    TransformerConfig cfg_;
    ModelWeights weights_;
    std::vector<std::size_t> tokens_{3, 17, 5, 60, 1, 42};
};

TEST_F(FaultEngineTest, EmptyPlanKeepsEngineBitIdentical)
{
    const FaultInjector inj{FaultModelParams{}};
    const ModelWeights faulty = applyToModel(weights_, cfg_, inj);
    Engine clean(cfg_, weights_, ExecPath::Hardwired);
    Engine under_plan(cfg_, faulty, ExecPath::Hardwired);
    const Vec a = logitsAfter(clean, tokens_);
    const Vec b = logitsAfter(under_plan, tokens_);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "logit " << i;
}

TEST_F(FaultEngineTest, FaultyEngineIsSeedDeterministicAndDiverges)
{
    ModelFaultStats stats;
    const ModelWeights faulty_a =
        applyToModel(weights_, cfg_, injector(1001), &stats);
    const ModelWeights faulty_b =
        applyToModel(weights_, cfg_, injector(1001));
    EXPECT_GT(stats.stuckBits + stats.deadRows, 0u);

    Engine clean(cfg_, weights_, ExecPath::Hardwired);
    Engine eng_a(cfg_, faulty_a, ExecPath::Hardwired);
    Engine eng_b(cfg_, faulty_b, ExecPath::Hardwired);

    const Vec l_clean = logitsAfter(clean, tokens_);
    const Vec l_a = logitsAfter(eng_a, tokens_);
    const Vec l_b = logitsAfter(eng_b, tokens_);

    bool diverged = false;
    for (std::size_t i = 0; i < l_a.size(); ++i) {
        EXPECT_EQ(l_a[i], l_b[i]) << "logit " << i;
        if (l_a[i] != l_clean[i])
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST_F(FaultEngineTest, FaultyOutputsIndependentOfThreadCount)
{
    const ModelWeights faulty =
        applyToModel(weights_, cfg_, injector(2024));
    Engine serial(cfg_, faulty, ExecPath::Hardwired, 8,
                  ExecOptions{1});
    Engine threaded(cfg_, faulty, ExecPath::Hardwired, 8,
                    ExecOptions{4});
    const Vec a = logitsAfter(serial, tokens_);
    const Vec b = logitsAfter(threaded, tokens_);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "logit " << i;
}

TEST_F(FaultEngineTest, DistributedMatchesMonolithicUnderFaults)
{
    const ModelWeights faulty =
        applyToModel(weights_, cfg_, injector(555));
    Engine mono(cfg_, faulty, ExecPath::Reference);
    DistributedEngine dist(cfg_, faulty, 2, 2);
    KvCache mono_cache = mono.makeCache();
    auto dist_cache = dist.makeCache();
    for (std::size_t token : tokens_) {
        const Vec a = mono.forwardToken(token, mono_cache);
        const Vec b = dist.forwardToken(token, dist_cache);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-9) << "logit " << i;
    }
}

// -- repair-aware yield and cost ------------------------------------------

TEST(FaultYield, EffectiveYieldMonotoneInSpares)
{
    const WaferModel wafers(n5Technology());
    SpareRepairParams repair;
    repair.repairableFraction = 0.3;
    double previous = 0.0;
    for (std::size_t spares : {0u, 1u, 2u, 4u, 8u, 16u}) {
        repair.spareRows = spares;
        const double y = wafers.effectiveYield(827.08, repair);
        EXPECT_GE(y, previous) << "spares " << spares;
        EXPECT_LE(y, 1.0);
        previous = y;
    }
    // With zero spares repair is disabled: plain Murphy.
    repair.spareRows = 0;
    EXPECT_DOUBLE_EQ(wafers.effectiveYield(827.08, repair),
                     wafers.murphyYield(827.08));
    // A real spare budget strictly beats no repair at this density.
    repair.spareRows = 4;
    EXPECT_GT(wafers.effectiveYield(827.08, repair),
              wafers.murphyYield(827.08));
}

TEST(FaultYield, MurphyYieldEdgeCases)
{
    TechnologyParams ideal = n5Technology();
    ideal.defectDensityPerCm2 = 0.0;
    const WaferModel perfect(ideal);
    EXPECT_DOUBLE_EQ(perfect.murphyYield(827.08), 1.0);
    EXPECT_DOUBLE_EQ(perfect.murphyYield(0.0), 1.0);

    const WaferModel wafers(n5Technology());
    EXPECT_DEATH(wafers.murphyYield(-1.0), "die area");
    SpareRepairParams bad;
    bad.spareRows = 2;
    bad.repairableFraction = 1.5;
    EXPECT_DEATH(wafers.effectiveYield(100.0, bad),
                 "repairableFraction");
}

TEST(FaultYield, RepairLowersGoodDieCost)
{
    SpareRepairParams repair;
    repair.spareRows = 8;
    repair.repairableFraction = 0.3;
    const HnlpuCostModel base(n5Technology(), MaskStack{});
    const HnlpuCostModel repaired(n5Technology(), MaskStack{},
                                  RecurringCostParams{},
                                  DesignCostParams{}, repair);
    const auto bd_base = base.breakdown(gptOss120b());
    const auto bd_rep = repaired.breakdown(gptOss120b());
    EXPECT_LT(bd_rep.waferPerChip, bd_base.waferPerChip);
    EXPECT_LT(bd_rep.recurringPerChip().lo,
              bd_base.recurringPerChip().lo);
}

// -- fabric degradation ----------------------------------------------------

TEST(FaultFabric, RejectsInvalidLinkParamsAndGrid)
{
    CxlLinkParams bad;
    bad.bandwidth = 0.0;
    EXPECT_DEATH(Fabric(2, 2, bad), "bandwidth");
    bad = CxlLinkParams{};
    bad.efficiency = 1.5;
    EXPECT_DEATH(Fabric(2, 2, bad), "efficiency");
    bad = CxlLinkParams{};
    bad.latency = -1e-9;
    EXPECT_DEATH(Fabric(2, 2, bad), "latency");
    EXPECT_DEATH(Fabric(0, 4, CxlLinkParams{}), "grid");

    LinkFaultParams lf;
    lf.retryProbability = 1.0;
    Fabric fabric(2, 2, CxlLinkParams{});
    EXPECT_DEATH(fabric.setLinkFaults(lf), "retryProbability");
}

TEST(FaultFabric, RetriesConsumeTimeDeterministically)
{
    LinkFaultParams lf;
    lf.seed = 31337;
    lf.retryProbability = 0.5;

    Fabric clean(2, 2, CxlLinkParams{});
    Fabric lossy_a(2, 2, CxlLinkParams{});
    Fabric lossy_b(2, 2, CxlLinkParams{});
    lossy_a.setLinkFaults(lf);
    lossy_b.setLinkFaults(lf);

    Tick clean_done = 0, a_done = 0, b_done = 0;
    for (int i = 0; i < 64; ++i) {
        clean_done = clean.send(0, 1, 4096.0, clean_done);
        a_done = lossy_a.send(0, 1, 4096.0, a_done);
        b_done = lossy_b.send(0, 1, 4096.0, b_done);
    }
    EXPECT_EQ(a_done, b_done);
    EXPECT_GT(a_done, clean_done);
    EXPECT_GT(lossy_a.totalRetries(), 0u);
}

TEST(FaultFabric, RetryExhaustionCompletesWithPenalty)
{
    LinkFaultParams lf;
    lf.seed = 1;
    lf.retryProbability = 0.99;
    lf.maxRetries = 2;
    Fabric fabric(2, 2, CxlLinkParams{});
    fabric.setLinkFaults(lf);
    Tick done = 0;
    for (int i = 0; i < 32; ++i)
        done = fabric.send(0, 1, 1024.0, done);
    EXPECT_GT(fabric.retryTimeouts(), 0u);
    EXPECT_GT(done, 0u);
}

TEST(FaultFabric, DeadChipIsRoutedAround)
{
    Fabric fabric(4, 4, CxlLinkParams{});
    const ChipId dead = fabric.chipAt(1, 1);
    fabric.markChipDead(dead);
    EXPECT_FALSE(fabric.chipAlive(dead));
    EXPECT_EQ(fabric.liveChips().size(), 15u);
    EXPECT_FALSE(fabric.usable(fabric.chipAt(1, 0), dead));

    // Cross pair whose preferred corner is the dead chip: (1,2)->(3,1)
    // must relay through a live intermediate.
    const Tick done = fabric.sendRouted(fabric.chipAt(1, 2),
                                        fabric.chipAt(3, 1), 2048.0, 0);
    EXPECT_GT(done, 0u);
    EXPECT_GT(fabric.reroutedMessages(), 0u);
}

TEST(FaultFabric, CollectivesSkipDeadMembersAndRecover)
{
    Fabric clean(4, 4, CxlLinkParams{});
    Fabric degraded(4, 4, CxlLinkParams{});
    degraded.markChipDead(degraded.chipAt(2, 3));

    std::vector<ChipId> row;
    for (std::size_t c = 0; c < 4; ++c)
        row.push_back(degraded.chipAt(2, c));
    // All-reduce over the dead chip's row completes without it.
    const Tick t = timedAllReduce(degraded, row, 4096.0, 0);
    EXPECT_GT(t, 0u);

    // The grid all-reduce completes and pays recovery traffic.
    const Tick t_clean = timedGridAllReduce(clean, 4096.0, 0);
    const Tick t_degraded = timedGridAllReduce(degraded, 4096.0, 0);
    EXPECT_GT(t_degraded, 0u);
    EXPECT_GT(degraded.reroutedMessages(), 0u);
    EXPECT_GE(t_degraded, t_clean - t_clean / 4); // no pathological speedup
}

// -- degraded pipeline -----------------------------------------------------

PipelineConfig
fastPipeline()
{
    PipelineConfig cfg = defaultGptOssPipeline(2048);
    cfg.warmupTokens = 50;
    cfg.measuredTokens = 300;
    return cfg;
}

TEST(FaultPipeline, CleanConfigUnchangedByFaultFields)
{
    PipelineConfig cfg = fastPipeline();
    const PipelineResult clean = PipelineSim(cfg).run();
    cfg.faults.seed = 999; // seed alone enables nothing
    const PipelineResult seeded = PipelineSim(cfg).run();
    EXPECT_EQ(clean.tokensPerSecond, seeded.tokensPerSecond);
    EXPECT_FALSE(seeded.degraded);
    EXPECT_EQ(seeded.linkRetries, 0u);
}

TEST(FaultPipeline, DegradedModeCompletesAndReportsSlowdown)
{
    const PipelineResult clean = PipelineSim(fastPipeline()).run();

    PipelineConfig cfg = fastPipeline();
    cfg.faults.seed = 4242;
    cfg.faults.linkRetryProbability = 0.02;
    cfg.faults.deadChips = {5, 10};
    const PipelineResult degraded = PipelineSim(cfg).run();

    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.deadChips, 2u);
    EXPECT_GT(degraded.linkRetries, 0u);
    EXPECT_GT(degraded.reroutedTransfers, 0u);
    EXPECT_GT(degraded.tokensPerSecond, 0.0);
    EXPECT_LT(degraded.tokensPerSecond, clean.tokensPerSecond);

    // Same fault seed, same result: the degraded sim is deterministic.
    const PipelineResult again = PipelineSim(cfg).run();
    EXPECT_EQ(degraded.tokensPerSecond, again.tokensPerSecond);
    EXPECT_EQ(degraded.linkRetries, again.linkRetries);
}

TEST(FaultPipeline, RejectsInvalidFaultConfig)
{
    PipelineConfig cfg = fastPipeline();
    cfg.faults.deadChips = {0};
    EXPECT_DEATH(PipelineSim{cfg}, "representative");
    cfg.faults.deadChips = {1000};
    EXPECT_DEATH(PipelineSim{cfg}, "out of range");
    cfg.faults.deadChips.clear();
    cfg.faults.linkRetryProbability = 1.0;
    EXPECT_DEATH(PipelineSim{cfg}, "linkRetryProbability");
}

// -- rate-limited logging --------------------------------------------------

TEST(FaultLogging, WarnRateLimiterBurstsThenThrottles)
{
    detail::WarnRateLimiter limiter;
    std::size_t logged = 0;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        if (limiter.shouldLog())
            ++logged;
    }
    // First kBurst all log, then one per kPeriod.
    const std::size_t expected =
        detail::WarnRateLimiter::kBurst +
        (3000 - detail::WarnRateLimiter::kBurst) /
            detail::WarnRateLimiter::kPeriod;
    EXPECT_EQ(logged, expected);
    EXPECT_EQ(limiter.occurrences(), 3000u);
}

// -- live fault injection premise (serve::ServingRouter's probe) ----------

TEST(FaultModel, SpareRepairedModelGeneratesBitIdenticalUnrepairedDiverges)
{
    // The serving router's health probe rests on exactly this
    // dichotomy: a fully spare-repaired model is functionally
    // indistinguishable from clean weights (in-flight KV caches stay
    // valid, decode continues bit-identically), while an unrepairable
    // plan changes greedy output and must be detected and drained.
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 31);
    const std::vector<std::size_t> prompt{1, 2, 3};
    Engine clean_engine(cfg, clean, ExecPath::Reference);
    Sampler g0(SamplerConfig{0.0, 0}, 0);
    const auto golden = clean_engine.generate(prompt, 6, g0);

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
        Engine twin_engine(cfg, twin, ExecPath::Reference);
        Sampler g1(SamplerConfig{0.0, 0}, 0);
        EXPECT_EQ(twin_engine.generate(prompt, 6, g1), golden);
    }

    FaultModelParams harsh = repairable;
    harsh.spareRows = 0;
    harsh.stuckBitRate = 0.05;
    harsh.deadRowRate = 0.05;
    {
        FaultInjector injector(harsh);
        ModelFaultStats fstats;
        const auto twin = applyToModel(clean, cfg, injector, &fstats);
        ASSERT_GT(fstats.deadRows + fstats.flippedBits, 0u);
        Engine twin_engine(cfg, twin, ExecPath::Reference);
        Sampler g2(SamplerConfig{0.0, 0}, 0);
        EXPECT_NE(twin_engine.generate(prompt, 6, g2), golden);
    }
}

} // namespace
} // namespace hnlpu
