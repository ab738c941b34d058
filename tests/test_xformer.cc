/**
 * @file
 * Tests for the functional transformer engine: operator correctness,
 * MoE routing, KV cache behaviour and the reference-vs-hardwired
 * execution-path equivalence that underpins the whole HNLPU claim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/linear.hh"
#include "xformer/moe.hh"
#include "xformer/ops.hh"
#include "xformer/sampler.hh"
#include "xformer/tensor.hh"
#include "xformer/weights.hh"

namespace hnlpu {
namespace {

TEST(Tensor, MatVecBasics)
{
    Mat m(2, 3);
    m.at(0, 0) = 1;
    m.at(0, 1) = 2;
    m.at(0, 2) = 3;
    m.at(1, 0) = -1;
    m.at(1, 1) = 0;
    m.at(1, 2) = 1;
    Vec y = matVec(m, {1.0, 1.0, 1.0});
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);

    Vec yt = matTVec(m, {1.0, 2.0});
    EXPECT_DOUBLE_EQ(yt[0], -1.0);
    EXPECT_DOUBLE_EQ(yt[1], 2.0);
    EXPECT_DOUBLE_EQ(yt[2], 5.0);
}

TEST(Tensor, ElementwiseOps)
{
    Vec a{1.0, 2.0}, b{3.0, -1.0};
    EXPECT_DOUBLE_EQ(add(a, b)[0], 4.0);
    EXPECT_DOUBLE_EQ(hadamard(a, b)[1], -2.0);
    EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
    Vec c = a;
    scale(c, 2.0);
    EXPECT_DOUBLE_EQ(c[1], 4.0);
}

TEST(Ops, RmsNormUnitScale)
{
    Vec x{3.0, 4.0};
    Vec gain{1.0, 1.0};
    Vec out = rmsNorm(x, gain, 0.0);
    // rms = sqrt((9+16)/2) = sqrt(12.5)
    const double rms = std::sqrt(12.5);
    EXPECT_NEAR(out[0], 3.0 / rms, 1e-12);
    EXPECT_NEAR(out[1], 4.0 / rms, 1e-12);
    // Output RMS is 1.
    EXPECT_NEAR(std::sqrt((out[0] * out[0] + out[1] * out[1]) / 2), 1.0,
                1e-12);
}

TEST(Ops, SoftmaxNormalisesAndOrders)
{
    Vec p = softmax({1.0, 2.0, 3.0});
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
    EXPECT_LT(p[0], p[1]);
    EXPECT_LT(p[1], p[2]);
    // Stability under large logits.
    Vec q = softmax({1000.0, 1001.0});
    EXPECT_NEAR(q[0] + q[1], 1.0, 1e-12);
    EXPECT_GT(q[1], q[0]);
}

TEST(Ops, SwiGluMatchesDefinition)
{
    Vec gate{1.0, -2.0}, up{2.0, 3.0};
    Vec out = swiGlu(gate, up);
    EXPECT_NEAR(out[0], silu(1.0) * 2.0, 1e-12);
    EXPECT_NEAR(out[1], silu(-2.0) * 3.0, 1e-12);
}

TEST(Ops, RopePreservesNormAndIsPositionDependent)
{
    Vec head{1.0, 0.0, 0.5, -0.5};
    Vec at_zero = head;
    applyRope(at_zero, 0);
    // Position 0 is the identity rotation.
    for (std::size_t i = 0; i < head.size(); ++i)
        EXPECT_NEAR(at_zero[i], head[i], 1e-12);

    Vec at_five = head;
    applyRope(at_five, 5);
    EXPECT_NEAR(dot(at_five, at_five), dot(head, head), 1e-12);
    // Different positions rotate differently.
    double diff = 0.0;
    for (std::size_t i = 0; i < head.size(); ++i)
        diff += std::fabs(at_five[i] - head[i]);
    EXPECT_GT(diff, 1e-3);
}

TEST(Ops, RopeRelativePropertyOnDotProducts)
{
    // <rope(q,m), rope(k,n)> depends only on m-n.
    Vec q{0.3, -0.7, 1.1, 0.2}, k{-0.4, 0.9, 0.1, 0.5};
    auto rotated_dot = [&](std::size_t m, std::size_t n) {
        Vec qq = q, kk = k;
        applyRope(qq, m);
        applyRope(kk, n);
        return dot(qq, kk);
    };
    EXPECT_NEAR(rotated_dot(3, 1), rotated_dot(7, 5), 1e-9);
    EXPECT_NEAR(rotated_dot(10, 10), rotated_dot(0, 0), 1e-9);
}

TEST(Ops, TopKOrdersDescending)
{
    auto idx = topK({0.1, 0.9, 0.5, 0.9}, 3);
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 1u); // stable: first of the tied maxima
    EXPECT_EQ(idx[1], 3u);
    EXPECT_EQ(idx[2], 2u);
}

TEST(Linear, ReferenceMatchesHardwiredWithinQuantisation)
{
    Linear lin = Linear::random(24, 96, 42);
    Rng rng(7);
    Vec x(96);
    for (double &v : x)
        v = rng.gaussian(0.0, 1.0);

    const Vec ref = lin.forward(x, ExecContext{ExecPath::Reference});
    const Vec hw = lin.forward(x, ExecContext{ExecPath::Hardwired, 12});
    ASSERT_EQ(ref.size(), hw.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(hw[i], ref[i], 0.05) << "row " << i;
}

TEST(Linear, HardwiredExactForQuantisedInputs)
{
    // When activations are already integers on the quantiser grid
    // (abs max == max code so the scale is exactly 1) the two paths
    // agree bit-exactly.
    Linear lin = Linear::random(8, 32, 9);
    Rng rng(4);
    Vec x(32);
    for (double &v : x)
        v = static_cast<double>(rng.uniformInt(-127, 127));
    x[0] = 127.0; // pin the scale to exactly 1
    const Vec ref = lin.forward(x, ExecContext{ExecPath::Reference});
    const Vec hw = lin.forward(x, ExecContext{ExecPath::Hardwired, 8});
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(hw[i], ref[i], 1e-9);
}

TEST(Linear, FromRealQuantisesToGrid)
{
    Mat w(1, 4);
    w.at(0, 0) = 0.9;
    w.at(0, 1) = -3.2;
    w.at(0, 2) = 10.0;
    w.at(0, 3) = 0.0;
    Linear lin = Linear::fromReal(w);
    EXPECT_DOUBLE_EQ(lin.weightValue(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(lin.weightValue(0, 1), -3.0);
    EXPECT_DOUBLE_EQ(lin.weightValue(0, 2), 6.0); // saturates
    EXPECT_DOUBLE_EQ(lin.weightValue(0, 3), 0.0);
}

TEST(Moe, TopKRoutingSelectsActiveExperts)
{
    const std::size_t hidden = 16, ffn = 24, experts = 8, k = 2;
    std::vector<Expert> ex;
    for (std::size_t e = 0; e < experts; ++e) {
        ex.push_back(Expert{Linear::random(ffn, hidden, 100 + e),
                            Linear::random(ffn, hidden, 200 + e),
                            Linear::random(hidden, ffn, 300 + e)});
    }
    MoeLayer moe(Linear::random(experts, hidden, 999), std::move(ex), k);

    Rng rng(5);
    Vec x(hidden);
    for (double &v : x)
        v = rng.gaussian(0.0, 1.0);

    std::vector<std::size_t> selected;
    Vec out = moe.forward(x, ExecContext{ExecPath::Reference, 8}, &selected);
    EXPECT_EQ(out.size(), hidden);
    EXPECT_EQ(selected.size(), k);
    EXPECT_NE(selected[0], selected[1]);
}

TEST(Moe, DenseLayerBypassesRouter)
{
    Expert ex{Linear::random(12, 8, 1), Linear::random(12, 8, 2),
              Linear::random(8, 12, 3)};
    MoeLayer dense = MoeLayer::dense(std::move(ex));
    std::vector<std::size_t> selected;
    Vec out = dense.forward(Vec(8, 0.5), ExecContext{ExecPath::Reference, 8},
                            &selected);
    EXPECT_EQ(out.size(), 8u);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], 0u);
}

TEST(KvCacheTest, AppendAndLookup)
{
    KvCache cache(2, 2, 4);
    EXPECT_EQ(cache.length(), 0u);
    const Vec k{1, 2, 3, 4, 5, 6, 7, 8}; // two heads, head-major
    const Vec v{9, 9, 9, 9, 8, 8, 8, 8};
    cache.appendFlat(0, k, v);
    EXPECT_EQ(cache.length(), 0u); // advances after the last layer
    cache.appendFlat(1, k, v);
    EXPECT_EQ(cache.length(), 1u);
    EXPECT_DOUBLE_EQ(cache.key(0, 1, 0)[2], 7.0);
    EXPECT_DOUBLE_EQ(cache.value(1, 0, 0)[0], 9.0);
}

TEST(SamplerTest, GreedyPicksArgmax)
{
    Sampler sampler({0.0, 0}, 1);
    EXPECT_EQ(sampler.sample({0.1, 5.0, 3.0}), 1u);
}

TEST(SamplerTest, TemperatureSamplingIsDistributional)
{
    Sampler sampler({1.0, 0}, 123);
    int counts[2] = {0, 0};
    for (int i = 0; i < 2000; ++i)
        counts[sampler.sample({0.0, 1.0})]++;
    // P(1) = e/(1+e) ~ 0.731.
    EXPECT_NEAR(counts[1] / 2000.0, 0.731, 0.05);
}

TEST(SamplerTest, TopKRestrictsSupport)
{
    Sampler sampler({1.0, 2}, 77);
    for (int i = 0; i < 200; ++i) {
        std::size_t t = sampler.sample({10.0, 9.0, -50.0, -60.0});
        EXPECT_LT(t, 2u);
    }
}

class EnginePathEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EnginePathEquivalence, GreedyDecodeMatchesReference)
{
    // The headline functional claim: the hardwired bit-serial machine
    // generates the same tokens as the reference float executor over the
    // same FP4 weights (activation quantisation of `width` bits).
    const unsigned width = GetParam();
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 2024);

    Engine ref_engine(cfg, weights, ExecPath::Reference);
    Engine hw_engine(cfg, weights, ExecPath::Hardwired, width);

    const std::vector<std::size_t> prompt{1, 5, 9, 2};

    // First, the logits after prefill must be close (cosine similarity
    // degrading gracefully with activation width).
    KvCache ref_cache = ref_engine.makeCache();
    KvCache hw_cache = hw_engine.makeCache();
    Vec ref_logits, hw_logits;
    for (std::size_t token : prompt) {
        ref_logits = ref_engine.forwardToken(token, ref_cache);
        hw_logits = hw_engine.forwardToken(token, hw_cache);
    }
    const double cosine =
        dot(ref_logits, hw_logits) /
        std::sqrt(dot(ref_logits, ref_logits) *
                  dot(hw_logits, hw_logits));
    EXPECT_GT(cosine, width >= 12 ? 0.9999 : 0.97) << "width " << width;

    // Second, with 12+ bit activations greedy rollouts must match
    // token-for-token (the tiny model amplifies quantisation noise, so
    // 8-bit rollouts are only held to the logit-similarity bar above).
    if (width >= 12) {
        Sampler greedy_a({0.0, 0}, 0), greedy_b({0.0, 0}, 0);
        const auto ref_tokens = ref_engine.generate(prompt, 12,
                                                    greedy_a);
        const auto hw_tokens = hw_engine.generate(prompt, 12, greedy_b);
        EXPECT_EQ(ref_tokens, hw_tokens);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, EnginePathEquivalence,
                         ::testing::Values(8u, 12u, 14u));

TEST(EngineTest, LogitsFiniteAndVocabSized)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 7);
    Engine engine(cfg, weights, ExecPath::Reference);
    KvCache cache = engine.makeCache();
    Vec logits = engine.forwardToken(3, cache);
    ASSERT_EQ(logits.size(), cfg.vocabSize);
    for (double l : logits)
        EXPECT_TRUE(std::isfinite(l));
    EXPECT_EQ(cache.length(), 1u);
}

TEST(EngineTest, StatsAccumulate)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 8);
    Engine engine(cfg, weights, ExecPath::Hardwired);
    Sampler greedy({0.0, 0}, 0);
    engine.generate({1, 2}, 3, greedy);
    // 2 prefill + 2 decode forwards (the last sampled token is not fed
    // back).
    EXPECT_EQ(engine.stats().tokensProcessed, 4u);
    EXPECT_GT(engine.stats().hnActivity.cycles, 0u);
    std::size_t routed = 0;
    for (auto c : engine.stats().expertHistogram)
        routed += c;
    EXPECT_EQ(routed,
              engine.stats().tokensProcessed * cfg.layerCount *
                  cfg.activeExperts);
}

TEST(Ops, TopKMatchesFullStableSortReference)
{
    // topK now uses nth_element + a small prefix sort; pin it to the
    // old full-stable-sort semantics (value desc, index asc on ties).
    Rng rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        Vec values(97);
        for (double &v : values) {
            v = rng.gaussian(0.0, 1.0);
            // Coarsen so ties actually occur.
            v = std::round(v * 4.0) / 4.0;
        }
        std::vector<std::size_t> reference(values.size());
        std::iota(reference.begin(), reference.end(), 0);
        std::stable_sort(reference.begin(), reference.end(),
                         [&](std::size_t a, std::size_t b) {
                             return values[a] > values[b];
                         });
        for (std::size_t k : {0u, 1u, 2u, 8u, 96u, 97u}) {
            const auto got = topK(values, k);
            ASSERT_EQ(got.size(), k);
            for (std::size_t i = 0; i < k; ++i)
                EXPECT_EQ(got[i], reference[i])
                    << "trial " << trial << " k " << k << " rank " << i;
        }
    }
}

TEST(KvCacheTest, OutOfOrderAppendIsRejected)
{
    // The length_ heuristic counts tokens on the last layer's append;
    // out-of-order appends used to miscount silently.
    const Vec k{1, 2, 3, 4};
    const Vec v{5, 6, 7, 8};

    KvCache skip(2, 2, 2);
    EXPECT_DEATH(skip.appendFlat(1, k, v), "skipped layer");

    KvCache twice(2, 2, 2);
    twice.appendFlat(0, k, v);
    EXPECT_DEATH(twice.appendFlat(0, k, v), "out of order");

    // The legal order still tracks length correctly.
    KvCache ok(2, 2, 2);
    ok.appendFlat(0, k, v);
    ok.appendFlat(1, k, v);
    EXPECT_EQ(ok.length(), 1u);
    ok.appendFlat(0, k, v);
    ok.appendFlat(1, k, v);
    EXPECT_EQ(ok.length(), 2u);
}

TEST(EngineTest, ScoreSequenceRejectsOutOfRangeIds)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 5);
    Engine engine(cfg, weights, ExecPath::Reference);
    // An out-of-range id in the *last* position is only ever used as a
    // probs[] index, so without up-front validation it read past the
    // vocab-sized logits instead of tripping forwardToken's check.
    EXPECT_DEATH(engine.scoreSequence({1, 2, cfg.vocabSize}),
                 "out of vocab range");
    EXPECT_DEATH(engine.scoreSequence({cfg.vocabSize, 1, 2}),
                 "out of vocab range");
}

TEST(Ops, LogSumExpStableAndConsistentWithSoftmax)
{
    // Normal range: logSumExp reproduces log(sum(exp)).
    const Vec logits{0.5, -1.25, 2.0, 0.0};
    double direct = 0.0;
    for (double l : logits)
        direct += std::exp(l);
    EXPECT_NEAR(logSumExp(logits), std::log(direct), 1e-12);
    // log softmax via logSumExp equals log of the softmax entries.
    const Vec probs = softmax(logits);
    const double lse = logSumExp(logits);
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_NEAR(logits[i] - lse, std::log(probs[i]), 1e-12);
    // Extreme logit gaps: softmax(x)[0] underflows to exactly 0 (whose
    // log is -inf, hence the old 1e-300 clamp) but the log-softmax form
    // stays finite and exact: x[0] - lse == -2000 here.
    const Vec extreme{-1000.0, 1000.0};
    EXPECT_EQ(softmax(extreme)[0], 0.0);
    EXPECT_NEAR(extreme[0] - logSumExp(extreme), -2000.0, 1e-9);
}

TEST(EngineTest, ScoreSequenceMatchesManualLogSoftmax)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 6);
    Engine scorer(cfg, weights, ExecPath::Reference);
    Engine replay(cfg, weights, ExecPath::Reference);

    const std::vector<std::size_t> tokens{1, 4, 2, 7};
    const double score = scorer.scoreSequence(tokens);

    KvCache cache = replay.makeCache();
    double expected = 0.0;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Vec logits = replay.forwardToken(tokens[i], cache);
        expected += logits[tokens[i + 1]] - logSumExp(logits);
        // And the log-softmax form agrees with the old
        // log(softmax(logits)[t]) formula in normal range.
        EXPECT_NEAR(logits[tokens[i + 1]] - logSumExp(logits),
                    std::log(softmax(logits)[tokens[i + 1]]), 1e-9);
    }
    EXPECT_DOUBLE_EQ(score, expected);
    EXPECT_TRUE(std::isfinite(score));
}

TEST(EngineTest, DeterministicAcrossRuns)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 9);
    Engine a(cfg, weights, ExecPath::Reference);
    Engine b(cfg, weights, ExecPath::Reference);
    Sampler sa({0.8, 4}, 42), sb({0.8, 4}, 42);
    EXPECT_EQ(a.generate({1, 2, 3}, 8, sa), b.generate({1, 2, 3}, 8, sb));
}

TEST(SamplerTest, NaNLogitsAreRejectedUpFront)
{
    // NaN compares false against everything, so an argmax over
    // NaN-bearing logits would be scan-order-dependent; sample() must
    // refuse instead, on both the greedy and the temperature path.
    Sampler greedy({0.0, 0}, 0);
    const double nan = std::nan("");
    EXPECT_DEATH(greedy.sample({0.5, nan, 1.0}), "NaN logit at index 1");
    Sampler warm({0.9, 2}, 7);
    EXPECT_DEATH(warm.sample({nan, 0.0}), "NaN logit at index 0");
}

TEST(SamplerTest, ScratchReuseKeepsDrawsIdentical)
{
    // The temperature path now reuses member scratch buffers; draws
    // must still match a fresh sampler token for token.
    Sampler reused({0.7, 3}, 99);
    Rng logit_rng(123);
    for (int t = 0; t < 20; ++t) {
        Vec logits(50);
        for (double &l : logits)
            l = logit_rng.gaussian(0.0, 2.0);
        Sampler fresh({0.7, 3}, 99);
        // Re-sync the fresh sampler's RNG by replaying prior draws.
        Rng replay_rng(123);
        for (int u = 0; u < t; ++u) {
            Vec prior(50);
            for (double &l : prior)
                l = replay_rng.gaussian(0.0, 2.0);
            fresh.sample(prior);
        }
        EXPECT_EQ(reused.sample(logits), fresh.sample(logits))
            << "token " << t;
    }
}

TEST(KvCacheTest, ReferencesStayStableAcrossAppends)
{
    // Serving holds key()/value() pointers while appending later
    // tokens of the same step.  The paged layout guarantees stability
    // by construction -- blocks never move, with no capacity hint
    // required -- including across block boundaries.
    const std::size_t layers = 2, heads = 2, dim = 4;
    const std::size_t tokens = 40; // spans multiple 16-token blocks
    KvCache cache(layers, heads, dim); // deliberately no hint
    const Vec k{1, 2, 3, 4, 5, 6, 7, 8};
    const Vec v{9, 10, 11, 12, 13, 14, 15, 16};
    for (std::size_t l = 0; l < layers; ++l)
        cache.appendFlat(l, k, v);

    const double *key0 = cache.key(0, 1, 0);
    const double *val0 = cache.value(1, 0, 0);
    const Vec key0_copy(key0, key0 + dim);
    for (std::size_t t = 1; t < tokens; ++t) {
        for (std::size_t l = 0; l < layers; ++l)
            cache.appendFlat(l, k, v);
        EXPECT_EQ(cache.key(0, 1, 0), key0) << "token " << t;
        EXPECT_EQ(cache.value(1, 0, 0), val0) << "token " << t;
    }
    EXPECT_EQ(Vec(key0, key0 + dim), key0_copy);
    EXPECT_EQ(cache.length(), tokens);
}

TEST(EngineTest, ZeroDecodeStepsIsANoOp)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 10);
    Engine engine(cfg, weights, ExecPath::Reference);
    Sampler greedy({0.0, 0}, 0);
    EXPECT_TRUE(engine.generate({1, 2, 3}, 0, greedy).empty());
    // Nothing would consume the prefill, so the model never ran.
    EXPECT_EQ(engine.stats().tokensProcessed, 0u);
}

TEST(EngineTest, EmptyPromptAndShortScoreSequenceAreFatal)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 10);
    Engine engine(cfg, weights, ExecPath::Reference);
    Sampler greedy({0.0, 0}, 0);
    // No prompt means no position to decode from.
    EXPECT_DEATH(engine.generate({}, 4, greedy), "non-empty prompt");
    // Scoring needs a predicted token and at least one predictor.
    EXPECT_DEATH(engine.scoreSequence({}), ">= 2 tokens");
    EXPECT_DEATH(engine.scoreSequence({3}), ">= 2 tokens");
}

} // namespace
} // namespace hnlpu
