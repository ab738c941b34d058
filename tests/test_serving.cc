/**
 * @file
 * Bit-exactness and scheduling tests for the continuous-batching
 * serving stack: HnArray::gemmSerial/gemmReal vs per-column GEMV,
 * Linear/MoeLayer/Engine batched forwards vs their single-sequence
 * counterparts (across batch sizes, kernels, thread counts and faulted
 * arrays), and the ServingEngine's step clock cross-checked against
 * pipeline/batcher's ContinuousBatcher on one trace.
 *
 * Registered under ctest label `serving`; scripts/tier1.sh runs it, like
 * every test, under ThreadSanitizer (batched attention and the GEMM row
 * workers share per-step read-only state across the pool).  The
 * fatal-path death tests live in test_xformer.cc / test_pipeline.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fault/fault_plan.hh"
#include "fault/model_faults.hh"
#include "hn/hn_array.hh"
#include "hn/hn_kernel.hh"
#include "hn/hn_simd.hh"
#include "model/model_zoo.hh"
#include "obs/trace.hh"
#include "pipeline/batcher.hh"
#include "sim/core.hh"
#include "xformer/engine.hh"
#include "xformer/linear.hh"
#include "xformer/moe.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"

namespace hnlpu {
namespace {

SeaOfNeuronsTemplate
makeTemplate(std::size_t inputs)
{
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = inputs;
    tmpl.portsPerSlice = 16;
    tmpl.slackFactor = 4.0;
    return tmpl;
}

std::vector<std::int64_t>
randomActivations(std::size_t count, unsigned width, std::uint64_t seed)
{
    Rng rng(seed);
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
    const std::int64_t lo = -hi - 1;
    std::vector<std::int64_t> acts(count);
    for (auto &a : acts)
        a = rng.uniformInt(lo, hi);
    return acts;
}

Vec
randomReals(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    Vec v(count);
    for (double &x : v)
        x = rng.gaussian(0.0, 1.0);
    return v;
}

void
expectActivityEq(const HnActivity &a, const HnActivity &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.popcountBitOps, b.popcountBitOps);
    EXPECT_EQ(a.multiplyOps, b.multiplyOps);
    EXPECT_EQ(a.treeAddOps, b.treeAddOps);
}

// -- HnArray batched GEMM vs per-column GEMV ------------------------------

TEST(GemmSerial, MatchesPerColumnGemvAcrossBatchKernelThreadsDeadRows)
{
    const std::size_t rows = 12, cols = 70; // ragged: cols % 64 != 0
    const auto weights = syntheticFp4Weights(rows * cols, 11);
    // Dead rows exercise the per-row zero fill for every column.
    HnArray array(makeTemplate(cols), weights, rows, cols, {2, 7});
    ThreadPool pool(2);

    for (unsigned width : {4u, 8u}) {
        // Batch sizes straddle the kHnBatchChunk boundary (8).
        for (std::size_t batch : {1u, 2u, 3u, 5u, 8u, 9u}) {
            std::vector<std::vector<std::int64_t>> acts(batch);
            for (std::size_t b = 0; b < batch; ++b)
                acts[b] = randomActivations(
                    cols, width, 300 + width * 31 + batch * 7 + b);
            for (HnKernel kernel : {HnKernel::Packed, HnKernel::Simd,
                                    HnKernel::Scalar}) {
                for (ThreadPool *p : {(ThreadPool *)nullptr, &pool}) {
                    HnActivity gemm_act;
                    const auto flat = array.gemmSerial(
                        acts, width, &gemm_act, p, kernel);
                    ASSERT_EQ(flat.size(), rows * batch);
                    HnActivity gemv_act;
                    for (std::size_t b = 0; b < batch; ++b) {
                        const auto col = array.gemvSerial(
                            acts[b], width, &gemv_act, nullptr, kernel);
                        for (std::size_t r = 0; r < rows; ++r) {
                            ASSERT_EQ(flat[r * batch + b], col[r])
                                << "width " << width << " batch "
                                << batch << " b " << b << " r " << r;
                        }
                    }
                    // Activity is the exact sum of per-column counters.
                    expectActivityEq(gemm_act, gemv_act);
                }
            }
        }
    }
}

/**
 * Column @p b of a wide-row batch.  b % 3 == 1 is all-zero, b % 3 == 2
 * holds small non-negative values (every plane above bit 1 is zero),
 * the rest are dense.  At width 63 the dense values stay non-negative
 * and below 2^40, so no region sum can overflow int64.
 */
std::vector<std::int64_t>
wideColumn(std::size_t cols, unsigned width, std::size_t b,
           std::uint64_t seed)
{
    Rng rng(seed);
    const std::int64_t top = (std::int64_t(1) << (width - 1)) - 1;
    std::int64_t lo = 0, hi = 0;
    if (b % 3 == 2) {
        hi = std::min<std::int64_t>(3, top);
    } else if (b % 3 == 0) {
        hi = width == 63 ? (std::int64_t(1) << 40) - 1 : top;
        lo = width == 63 ? 0 : -top - 1;
    }
    std::vector<std::int64_t> acts(cols);
    for (auto &a : acts)
        a = rng.uniformInt(lo, hi);
    return acts;
}

TEST(GemmSerial, WideRowMatchesPerColumnGemvOnEverySimdTier)
{
    // 1090 columns = 18 words per plane, a ragged last word for
    // Packed and a ragged vector tail for the Simd dot loop on every
    // tier; width 63 runs Simd's Packed fallback.
    const std::size_t rows = 10, cols = 1090;
    const auto weights = syntheticFp4Weights(rows * cols, 13);
    HnArray array(makeTemplate(cols), weights, rows, cols, {3, 8});
    ThreadPool pool(2);

    for (unsigned width : {2u, 8u, 63u}) {
        // Batches cross the 4-column group and kHnBatchChunk (8); every
        // batch of 3+ mixes dense, all-zero and high-plane-zero
        // columns, and batch 5's last group is all-zero.
        for (std::size_t batch : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
            std::vector<std::vector<std::int64_t>> acts(batch);
            std::vector<std::vector<std::int64_t>> want(batch);
            HnActivity want_act;
            for (std::size_t b = 0; b < batch; ++b) {
                acts[b] = wideColumn(cols, width, b,
                                     700 + width * 37 + batch * 11 + b);
                want[b] = array.gemvSerial(acts[b], width, &want_act,
                                           nullptr, HnKernel::Packed);
                ASSERT_EQ(want[b], array.gemvReference(acts[b]));
            }
            for (HnSimdLevel level : hnSupportedSimdLevels()) {
                ScopedHnSimdLevel force(level);
                for (HnKernel kernel : {HnKernel::Packed, HnKernel::Simd}) {
                    for (ThreadPool *p : {(ThreadPool *)nullptr, &pool}) {
                        HnActivity gemm_act;
                        const auto flat = array.gemmSerial(
                            acts, width, &gemm_act, p, kernel);
                        ASSERT_EQ(flat.size(), rows * batch);
                        for (std::size_t b = 0; b < batch; ++b) {
                            for (std::size_t r = 0; r < rows; ++r) {
                                ASSERT_EQ(flat[r * batch + b], want[b][r])
                                    << hnSimdLevelName() << " width "
                                    << width << " batch " << batch
                                    << " b " << b << " r " << r;
                            }
                        }
                        expectActivityEq(gemm_act, want_act);
                    }
                }
            }
        }
    }
}

TEST(GemmReal, MatchesPerColumnGemvRealBitForBit)
{
    const std::size_t rows = 9, cols = 33;
    const auto weights = syntheticFp4Weights(rows * cols, 21);
    HnArray array(makeTemplate(cols), weights, rows, cols);

    for (std::size_t batch : {2u, 4u, 7u}) {
        std::vector<Vec> acts(batch);
        for (std::size_t b = 0; b < batch; ++b)
            acts[b] = randomReals(cols, 500 + batch * 13 + b);
        const auto got = array.gemmReal(acts, 8);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            const auto want = array.gemvReal(acts[b], 8);
            ASSERT_EQ(got[b].size(), want.size());
            for (std::size_t r = 0; r < rows; ++r) {
                // Bit-identical doubles, not approximately equal.
                EXPECT_EQ(got[b][r], want[r])
                    << "batch " << batch << " b " << b << " r " << r;
            }
        }
    }
}

// -- Linear::forwardBatch -------------------------------------------------

TEST(LinearBatch, MatchesForwardOnBothPathsIncludingFaultedWeights)
{
    const Linear clean = Linear::random(14, 40, 31);

    FaultModelParams params;
    params.seed = 77;
    params.stuckBitRate = 0.01;
    params.deadRowRate = 0.08;
    FaultInjector injector(params);
    const Linear faulted = applyToLinear(injector, clean, "test.linear");
    ASSERT_FALSE(faulted.deadRows().empty())
        << "fault plan produced no dead rows; bump deadRowRate";

    ThreadPool pool(2);
    for (const Linear *lin : {&clean, &faulted}) {
        for (ExecPath path :
             {ExecPath::Reference, ExecPath::Hardwired}) {
            for (std::size_t batch : {1u, 3u, 4u, 6u}) {
                std::vector<Vec> xs(batch);
                for (std::size_t b = 0; b < batch; ++b)
                    xs[b] = randomReals(40, 900 + batch * 17 + b);
                for (ThreadPool *p : {(ThreadPool *)nullptr, &pool}) {
                    const auto got = lin->forwardBatch(
                        xs, ExecContext{path, 8, HnKernel::Packed,
                                        nullptr, p});
                    ASSERT_EQ(got.size(), batch);
                    for (std::size_t b = 0; b < batch; ++b) {
                        const Vec want =
                            lin->forward(xs[b], ExecContext{path, 8});
                        ASSERT_EQ(got[b].size(), want.size());
                        for (std::size_t r = 0; r < want.size(); ++r) {
                            EXPECT_EQ(got[b][r], want[r])
                                << "path "
                                << (path == ExecPath::Hardwired ? "hw"
                                                                : "ref")
                                << " batch " << batch << " b " << b
                                << " r " << r;
                        }
                    }
                }
            }
        }
    }
}

// -- MoeLayer::forwardBatch -----------------------------------------------

TEST(MoeBatch, MatchesPerTokenForwardAndRouting)
{
    const std::size_t hidden = 24, expert_hidden = 20, experts = 4;
    std::vector<Expert> ex;
    for (std::size_t e = 0; e < experts; ++e) {
        ex.push_back(Expert{
            Linear::random(expert_hidden, hidden, 100 + e),
            Linear::random(expert_hidden, hidden, 200 + e),
            Linear::random(hidden, expert_hidden, 300 + e)});
    }
    MoeLayer moe(Linear::random(experts, hidden, 400), std::move(ex), 2);

    ThreadPool pool(2);
    for (ExecPath path : {ExecPath::Reference, ExecPath::Hardwired}) {
        for (std::size_t batch : {1u, 2u, 5u}) {
            std::vector<Vec> xs(batch);
            for (std::size_t b = 0; b < batch; ++b)
                xs[b] = randomReals(hidden, 700 + batch * 11 + b);
            for (ThreadPool *p : {(ThreadPool *)nullptr, &pool}) {
                std::vector<std::vector<std::size_t>> sel_batch(batch);
                const auto got = moe.forwardBatch(
                    xs, ExecContext{path, 8, HnKernel::Packed, nullptr,
                                    p},
                    sel_batch);
                ASSERT_EQ(got.size(), batch);
                ASSERT_EQ(sel_batch.size(), batch);
                for (std::size_t b = 0; b < batch; ++b) {
                    std::vector<std::size_t> sel;
                    const Vec want =
                        moe.forward(xs[b], ExecContext{path, 8}, &sel);
                    EXPECT_EQ(sel_batch[b], sel);
                    ASSERT_EQ(got[b].size(), want.size());
                    for (std::size_t d = 0; d < want.size(); ++d)
                        EXPECT_EQ(got[b][d], want[d])
                            << "batch " << batch << " b " << b << " d "
                            << d;
                }
            }
        }
    }
}

// -- Engine::forwardTokenBatch --------------------------------------------

TEST(EngineBatch, MatchesSequentialForwardTokenAndStats)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 42);

    for (ExecPath path : {ExecPath::Reference, ExecPath::Hardwired}) {
        for (std::size_t threads : {1u, 2u}) {
            ExecOptions exec;
            exec.threads = threads;
            Engine batched(cfg, weights, path, 8, exec);
            Engine sequential(cfg, weights, path, 8, exec);

            // Three sequences at different positions: feed different
            // prefixes first, then run one batched step.
            const std::vector<std::vector<std::size_t>> prefixes{
                {}, {3}, {9, 14}};
            const std::vector<std::size_t> step_tokens{1, 5, 7};

            std::vector<KvCache> b_caches, s_caches;
            for (std::size_t s = 0; s < prefixes.size(); ++s) {
                b_caches.push_back(batched.makeCache());
                s_caches.push_back(sequential.makeCache());
            }
            for (std::size_t s = 0; s < prefixes.size(); ++s) {
                for (std::size_t tok : prefixes[s]) {
                    batched.forwardToken(tok, b_caches[s]);
                    sequential.forwardToken(tok, s_caches[s]);
                }
            }

            std::vector<KvCache *> cache_ptrs;
            for (auto &c : b_caches)
                cache_ptrs.push_back(&c);
            const auto batch_logits =
                batched.forwardTokenBatch(step_tokens, cache_ptrs);
            ASSERT_EQ(batch_logits.size(), step_tokens.size());
            for (std::size_t s = 0; s < step_tokens.size(); ++s) {
                const Vec want = sequential.forwardToken(step_tokens[s],
                                                         s_caches[s]);
                ASSERT_EQ(batch_logits[s].size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    EXPECT_EQ(batch_logits[s][i], want[i])
                        << "threads " << threads << " seq " << s
                        << " logit " << i;
                EXPECT_EQ(b_caches[s].length(), s_caches[s].length());
            }
            // Stats are the exact sum of the per-sequence runs.
            EXPECT_EQ(batched.stats().tokensProcessed,
                      sequential.stats().tokensProcessed);
            EXPECT_EQ(batched.stats().expertHistogram,
                      sequential.stats().expertHistogram);
            expectActivityEq(batched.stats().hnActivity,
                             sequential.stats().hnActivity);
        }
    }
}

TEST(EngineBatch, WantLogitsSkipsUnembeddingForUnflaggedSequences)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 43);
    Engine engine(cfg, weights, ExecPath::Reference);

    KvCache a = engine.makeCache(), b = engine.makeCache();
    const auto logits = engine.forwardTokenBatch(
        {2, 6}, {&a, &b}, {0, 1});
    ASSERT_EQ(logits.size(), 2u);
    EXPECT_TRUE(logits[0].empty());
    ASSERT_EQ(logits[1].size(), cfg.vocabSize);
    // The skipped sequence's cache still advanced.
    EXPECT_EQ(a.length(), 1u);
    EXPECT_EQ(b.length(), 1u);
}

// -- ServingEngine vs sequential generate ---------------------------------

TEST(Serving, BatchedDecodeBitIdenticalToSequentialGenerate)
{
    const auto cfg = tinyTestModel();
    const auto clean = ModelWeights::randomInit(cfg, 77);

    FaultModelParams params;
    params.seed = 5;
    params.stuckBitRate = 0.002;
    params.deadRowRate = 0.01;
    FaultInjector injector(params);
    ModelFaultStats fstats;
    const auto faulted = applyToModel(clean, cfg, injector, &fstats);
    ASSERT_GT(fstats.stuckBits + fstats.deadRows, 0u);

    struct Req
    {
        std::vector<std::size_t> prompt;
        std::size_t decode;
        SamplerConfig sampler;
        std::uint64_t seed;
    };
    // Mixed greedy and temperature requests with different lengths, so
    // slots free at different steps and admission churns.
    const std::vector<Req> trace{
        {{1, 5, 9}, 4, {0.0, 0}, 0},
        {{2}, 6, {0.8, 5}, 11},
        {{7, 3}, 2, {0.0, 0}, 0},
        {{4, 8, 12, 16}, 5, {1.1, 0}, 23},
        {{6}, 3, {0.8, 5}, 37},
        {{10, 11}, 4, {0.0, 0}, 0},
    };

    for (const ModelWeights *w : {&clean, &faulted}) {
        for (ExecPath path :
             {ExecPath::Reference, ExecPath::Hardwired}) {
            // One sequential baseline per (weights, path): slot count
            // and thread count must not change a single token.
            ExecOptions base_exec;
            Engine baseline(cfg, *w, path, 8, base_exec);
            std::vector<std::vector<std::size_t>> want;
            for (const Req &r : trace) {
                Sampler sampler(r.sampler, r.seed);
                want.push_back(
                    baseline.generate(r.prompt, r.decode, sampler));
            }

            for (std::size_t threads : {1u, 2u}) {
                for (std::size_t slot_count : {1u, 2u, 4u}) {
                    ExecOptions exec;
                    exec.threads = threads;
                    Engine engine(cfg, *w, path, 8, exec);
                    ServingEngine serving(engine, slot_count);
                    ASSERT_EQ(serving.slotCount(), slot_count);
                    for (const Req &r : trace) {
                        ServingRequest req;
                        req.prompt = r.prompt;
                        req.decodeTokens = r.decode;
                        req.sampler = r.sampler;
                        req.seed = r.seed;
                        ASSERT_TRUE(
                            serving.tryEnqueue(req).admitted());
                    }
                    const auto outcomes = serving.run();
                    ASSERT_EQ(outcomes.size(), trace.size());
                    for (std::size_t i = 0; i < trace.size(); ++i) {
                        EXPECT_EQ(outcomes[i].tokens, want[i])
                            << "path "
                            << (path == ExecPath::Hardwired ? "hw"
                                                            : "ref")
                            << " threads " << threads << " slots "
                            << slot_count << " request " << i;
                    }
                }
            }
        }
    }
}

// -- Step clock vs ContinuousBatcher --------------------------------------

TEST(Serving, StepClockMatchesContinuousBatcherOnOneTrace)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 88);

    // Staggered arrivals, mixed lengths, d == 1 included (a request
    // that finishes on its first sampled token).
    struct Item
    {
        std::size_t arrival, p, d;
    };
    const std::vector<Item> trace{
        {0, 3, 4}, {0, 1, 6}, {1, 2, 1}, {4, 4, 3}, {9, 2, 2},
        {9, 1, 5},
    };

    for (std::size_t slot_count : {1u, 2u, 3u}) {
        Engine engine(cfg, weights, ExecPath::Reference);
        ServingEngine serving(engine, slot_count);
        for (const Item &it : trace) {
            ServingRequest req;
            req.prompt.assign(it.p, 1);
            req.decodeTokens = it.d;
            req.arrivalStep = it.arrival;
            ASSERT_TRUE(serving.tryEnqueue(req).admitted());
        }
        const auto outcomes = serving.run();

        // The serving engine samples the first decode token from the
        // last prefill forward, so a d-token request occupies its slot
        // for p + d - 1 unit steps: ContinuousBatcher with unit timings
        // sees the same schedule for Request{arrival, p, d - 1}.
        std::vector<Request> requests;
        for (const Item &it : trace)
            requests.push_back(
                Request{double(it.arrival), it.p, it.d - 1});
        ContinuousBatcher batcher(slot_count, 1.0, 1.0);
        const auto batcher_out = batcher.serve(requests);

        ASSERT_EQ(outcomes.size(), batcher_out.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(double(outcomes[i].admitStep),
                      batcher_out[i].start)
                << "slots " << slot_count << " request " << i;
            EXPECT_EQ(double(outcomes[i].firstTokenStep),
                      batcher_out[i].firstToken)
                << "slots " << slot_count << " request " << i;
            EXPECT_EQ(double(outcomes[i].finishStep),
                      batcher_out[i].finish)
                << "slots " << slot_count << " request " << i;
        }
    }
}

TEST(Serving, RunOnSharedClockBitIdenticalToPrivateRun)
{
    // The unified-core contract for the serving step loop: driving the
    // steps from a StepClock on a shared Simulation -- even one whose
    // clock is already deep into another workload -- changes neither
    // the schedule nor a single decoded token.
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 88);
    const auto enqueueTrace = [&](ServingEngine &serving) {
        const std::size_t arrivals[] = {0, 0, 1, 4, 9};
        for (std::size_t i = 0; i < 5; ++i) {
            ServingRequest req;
            req.prompt.assign(2 + i % 3, 1);
            req.decodeTokens = 1 + i;
            req.arrivalStep = arrivals[i];
            req.seed = 1000 + i;
            ASSERT_TRUE(serving.tryEnqueue(req).admitted());
        }
    };

    Engine baseline(cfg, weights, ExecPath::Reference);
    ServingEngine privateRun(baseline, 2);
    enqueueTrace(privateRun);
    const auto want = privateRun.run();

    sim::Simulation sim;
    sim.at(777777, [] {});
    sim.run(); // nonzero base tick
    Engine engine(cfg, weights, ExecPath::Reference);
    ServingEngine sharedRun(engine, 2);
    enqueueTrace(sharedRun);
    const auto got = sharedRun.runOn(sim);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want[i].tokens) << "request " << i;
        EXPECT_EQ(got[i].admitStep, want[i].admitStep);
        EXPECT_EQ(got[i].firstTokenStep, want[i].firstTokenStep);
        EXPECT_EQ(got[i].finishStep, want[i].finishStep);
    }
    // The step loop advanced the shared clock by whole step windows.
    EXPECT_GT(sim.now(), 777777u);
}

TEST(Serving, StepTimelineIdlesOneStepAtATimeAndClampsWallLookups)
{
    sim::Simulation sim;
    sim.at(5000, [] {});
    sim.run(); // nonzero base tick
    obs::Tracer tracer;
    StepTimeline timeline(sim, &tracer, "serving", "serve.step.sim");
    // Events co-scheduled inside idle step windows observe the step
    // that owns their window: idleUntil crosses one step at a time.
    std::vector<std::size_t> seen;
    const Tick base = sim.now();
    const Tick per_step = sim::StepClock::kDefaultTicksPerStep;
    for (const std::size_t s : {1u, 2u})
        sim.at(base + s * per_step + 1,
               [&] { seen.push_back(timeline.step()); });
    timeline.idleUntil(3);
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2}));
    ASSERT_EQ(timeline.step(), 3u);

    timeline.beginStep();
    timeline.endStep(2);
    EXPECT_EQ(timeline.step(), 4u);
    EXPECT_EQ(tracer.eventCount(), 1u);
    EXPECT_NE(tracer.toJson().find("serve.step.sim"), std::string::npos);
    const double wall = timeline.finish();

    // Idle steps share one start time; lookups past the run clamp to
    // its end.
    EXPECT_EQ(timeline.wallAt(0), timeline.wallAt(2));
    EXPECT_LE(timeline.wallAt(2), timeline.wallAt(3));
    EXPECT_EQ(timeline.wallAt(4), wall);
    EXPECT_EQ(timeline.wallAt(1000), wall);

    EXPECT_EQ(timeline.ttftQuantile(0.5), 0.0); // nothing recorded
    ServingOutcome out;
    out.admitStep = 3;
    out.firstTokenStep = 4;
    out.finishStep = 4;
    timeline.recordRequest(out);
    EXPECT_EQ(out.queueSeconds, timeline.wallAt(3) - timeline.wallAt(0));
    EXPECT_EQ(out.ttftSeconds, wall - timeline.wallAt(0));
    EXPECT_EQ(out.latencySeconds, out.ttftSeconds);
    EXPECT_LE(timeline.ttftQuantile(0.99), out.ttftSeconds);
    EXPECT_LE(timeline.latencyQuantile(0.99), out.latencySeconds);
}

// -- Metrics --------------------------------------------------------------

TEST(Serving, StatsAndMetricsJsonAreConsistent)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 99);
    Engine engine(cfg, weights, ExecPath::Reference);
    ServingEngine serving(engine, 2);

    std::size_t expected_forwards = 0, expected_decoded = 0;
    const std::vector<std::pair<std::size_t, std::size_t>> shape{
        {3, 4}, {2, 5}, {1, 2}, {4, 3}};
    for (const auto &[p, d] : shape) {
        ServingRequest req;
        req.prompt.assign(p, 2);
        req.decodeTokens = d;
        ASSERT_TRUE(serving.tryEnqueue(req).admitted());
        expected_forwards += p + d - 1;
        expected_decoded += d;
    }
    const auto outcomes = serving.run();
    const ServingStats &stats = serving.stats();

    EXPECT_EQ(stats.requests, shape.size());
    EXPECT_EQ(stats.slots, 2u);
    EXPECT_EQ(stats.forwards, expected_forwards);
    EXPECT_EQ(stats.decodedTokens, expected_decoded);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_GT(stats.aggregateTokensPerSecond, 0.0);
    EXPECT_GT(stats.meanOccupancy, 0.0);
    EXPECT_LE(stats.meanOccupancy, 1.0);
    EXPECT_LE(stats.ttftP50Seconds, stats.ttftP95Seconds);
    EXPECT_LE(stats.latencyP50Seconds, stats.latencyP95Seconds);
    for (const auto &out : outcomes) {
        EXPECT_GE(out.ttftSeconds, out.queueSeconds);
        EXPECT_GE(out.latencySeconds, out.ttftSeconds);
        EXPECT_GT(out.decodeTokensPerSecond, 0.0);
    }

    const std::string json = serving.metricsJson();
    for (const char *key :
         {"\"slots\"", "\"aggregate_tokens_per_second\"",
          "\"ttft_seconds\"", "\"latency_seconds\"",
          "\"mean_queue_seconds\"", "\"requests_detail\"",
          "\"decode_tokens_per_second\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }

    // The queue drained; a second run on an empty queue is a no-op.
    EXPECT_EQ(serving.queuedRequests(), 0u);
    EXPECT_TRUE(serving.run().empty());
}

// -- Typed admission control ----------------------------------------------

TEST(Serving, TryEnqueueTypedRejectionsLeaveQueueUntouched)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 51);
    Engine engine(cfg, weights, ExecPath::Reference);
    ServingEngine serving(engine, 1);

    ServingRequest empty;
    empty.decodeTokens = 2;
    EXPECT_EQ(serving.tryEnqueue(empty).reason,
              RejectReason::EmptyPrompt);

    ServingRequest zero;
    zero.prompt = {1, 2};
    EXPECT_EQ(serving.tryEnqueue(zero).reason,
              RejectReason::ZeroDecodeTokens);

    ServingRequest oov;
    oov.prompt = {1, cfg.vocabSize};
    oov.decodeTokens = 1;
    EXPECT_EQ(serving.tryEnqueue(oov).reason,
              RejectReason::TokenOutOfVocab);

    ServingRequest bad_temp;
    bad_temp.prompt = {1};
    bad_temp.decodeTokens = 1;
    bad_temp.sampler.temperature = -0.1;
    EXPECT_EQ(serving.tryEnqueue(bad_temp).reason,
              RejectReason::InvalidSampler);

    ServingRequest bad_topk;
    bad_topk.prompt = {1};
    bad_topk.decodeTokens = 1;
    bad_topk.sampler.topK = cfg.vocabSize + 1;
    EXPECT_EQ(serving.tryEnqueue(bad_topk).reason,
              RejectReason::InvalidSampler);

    // Nothing slipped into the queue.
    EXPECT_EQ(serving.queuedRequests(), 0u);

    ServingRequest ok;
    ok.prompt = {1, 2};
    ok.decodeTokens = 1;
    ok.arrivalStep = 5;
    const EnqueueResult admitted = serving.tryEnqueue(ok);
    EXPECT_TRUE(admitted.admitted());
    EXPECT_EQ(admitted.id, 0u);

    ServingRequest backwards = ok;
    backwards.arrivalStep = 4;
    EXPECT_EQ(serving.tryEnqueue(backwards).reason,
              RejectReason::ArrivalOrderViolation);
    EXPECT_EQ(serving.queuedRequests(), 1u);

    // Stable reason names (JSON keys, log lines).
    EXPECT_STREQ(rejectReasonName(RejectReason::None), "none");
    EXPECT_STREQ(rejectReasonName(RejectReason::QueueFull),
                 "queue_full");
    EXPECT_STREQ(rejectReasonName(RejectReason::DeadlineExpired),
                 "deadline_expired");
}

TEST(Serving, EmptyRunStatsAreZeroNotNaN)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 52);
    Engine engine(cfg, weights, ExecPath::Reference);
    ServingEngine serving(engine, 2);

    EXPECT_TRUE(serving.run().empty());
    const ServingStats &stats = serving.stats();
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.executedSteps, 0u);
    EXPECT_EQ(stats.forwards, 0u);
    EXPECT_EQ(stats.decodedTokens, 0u);
    for (const double v :
         {stats.wallSeconds, stats.aggregateTokensPerSecond,
          stats.meanOccupancy, stats.meanQueueSeconds,
          stats.ttftP50Seconds, stats.ttftP95Seconds,
          stats.latencyP50Seconds, stats.latencyP95Seconds}) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_EQ(v, 0.0);
    }
}

} // namespace
} // namespace hnlpu
