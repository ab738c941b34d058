/**
 * @file
 * Tests for the Hardwired-Neuron Compiler: weight round-trip through
 * the wire topology, DRC-style violation collection, metalization
 * statistics and the sign-off routing-density estimate (paper Section
 * 3.2: "routing density on ME layers (M8-M11) remains below 70%").
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hn/hn_array.hh"
#include "hncc/compiler.hh"
#include "model/model_zoo.hh"

namespace hnlpu {
namespace {

SeaOfNeuronsTemplate
tmplFor(std::size_t fan_in, double slack = 2.0)
{
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = fan_in;
    tmpl.portsPerSlice = 64;
    tmpl.slackFactor = slack;
    return tmpl;
}

TEST(WireTopologyRoundTrip, RecoverWeightsIsInverse)
{
    const std::size_t fan_in = 512;
    auto weights = syntheticFp4Weights(fan_in, 11);
    auto topo = WireTopology::program(tmplFor(fan_in), weights);
    ASSERT_TRUE(topo.has_value());
    const auto recovered = topo->recoverWeights();
    ASSERT_EQ(recovered.size(), weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i].isZero())
            EXPECT_TRUE(recovered[i].isZero()) << i;
        else
            EXPECT_EQ(recovered[i].code(), weights[i].code()) << i;
    }
}

class CompilerTest : public ::testing::Test
{
  protected:
    HnCompiler compiler_{n5Technology()};
};

TEST_F(CompilerTest, CleanCompileCollectsStats)
{
    const std::size_t rows = 16, cols = 256;
    auto weights = syntheticFp4Weights(rows * cols, 3);
    const auto plan = compiler_.compile(tmplFor(cols), weights, rows,
                                        cols);
    EXPECT_TRUE(plan.drcClean());
    const auto &stats = plan.stats();
    EXPECT_EQ(stats.neurons, rows);
    EXPECT_EQ(stats.wires + stats.zeroWeights, rows * cols);
    EXPECT_GT(stats.totalWireLengthMm, 0.0);
    EXPECT_GT(stats.slackUtilisation, 0.1);
    EXPECT_LE(stats.slackUtilisation, 1.0);
    std::size_t hist_total = 0;
    for (auto count : stats.valueHistogram)
        hist_total += count;
    EXPECT_EQ(hist_total, rows * cols);
    EXPECT_EQ(plan.topologies().size(), rows);
}

TEST_F(CompilerTest, GptOssFanInMeetsSignOffDensity)
{
    // One hidden-width neuron row at the paper's dimensions: routing
    // density must land under the 70% sign-off limit, but not absurdly
    // under it (the paper reports margins, not emptiness).
    const std::size_t rows = 8, cols = 2880;
    auto weights = syntheticFp4Weights(rows * cols, 7);
    const auto plan = compiler_.compile(tmplFor(cols), weights, rows,
                                        cols);
    EXPECT_TRUE(plan.drcClean());
    EXPECT_LT(plan.stats().routingDensity, 0.70);
    EXPECT_GT(plan.stats().routingDensity, 0.30);
}

TEST_F(CompilerTest, OverflowBecomesViolationNotDeath)
{
    // Severely undersized slack: programming must fail per-neuron and
    // be reported as violations.
    const std::size_t rows = 4, cols = 2048;
    std::vector<Fp4> weights(rows * cols, Fp4::quantize(1.0));
    const auto plan = compiler_.compile(tmplFor(cols, /*slack=*/0.5),
                                        weights, rows, cols);
    EXPECT_FALSE(plan.drcClean());
    EXPECT_GE(plan.violations().size(), rows);
    for (const auto &v : plan.violations())
        EXPECT_FALSE(v.message.empty());
}

TEST_F(CompilerTest, DensityViolationWhenLimitTightened)
{
    MetalizationParams strict;
    strict.densityLimit = 0.01;
    HnCompiler tight(n5Technology(), strict);
    const std::size_t rows = 4, cols = 512;
    auto weights = syntheticFp4Weights(rows * cols, 5);
    const auto plan = tight.compile(tmplFor(cols), weights, rows, cols);
    EXPECT_FALSE(plan.drcClean());
    EXPECT_NE(plan.violations().back().message.find("density"),
              std::string::npos);
}

TEST_F(CompilerTest, ScriptEmissionDeterministicAndBounded)
{
    const std::size_t rows = 4, cols = 64;
    auto weights = syntheticFp4Weights(rows * cols, 9);
    const auto plan = compiler_.compile(tmplFor(cols), weights, rows,
                                        cols);
    const std::string a = plan.emitScript(16);
    const std::string b = plan.emitScript(16);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("route_embedding_wire"), std::string::npos);
    EXPECT_NE(a.find("elided"), std::string::npos);
    EXPECT_NE(a.find("DRC clean"), std::string::npos);
    // At most 16 wire commands.
    std::size_t count = 0, pos = 0;
    while ((pos = a.find("route_embedding_wire", pos)) !=
           std::string::npos) {
        ++count;
        ++pos;
    }
    EXPECT_LE(count, 16u);
}

TEST_F(CompilerTest, CompiledTopologiesComputeCorrectly)
{
    // The compiler's topologies drive real Hardwired-Neurons: verify
    // one against the direct dot product.
    const std::size_t rows = 2, cols = 96;
    auto weights = syntheticFp4Weights(rows * cols, 21);
    const auto plan = compiler_.compile(tmplFor(cols), weights, rows,
                                        cols);
    ASSERT_TRUE(plan.drcClean());

    const WireTopology &topo = plan.topologies()[1];
    const HnArray row(topo.tmpl(), topo.recoverWeights(), 1, cols);
    const HardwiredNeuron neuron = row.neuron(0);
    Rng rng(4);
    std::vector<std::int64_t> x(cols);
    std::int64_t expected = 0;
    for (std::size_t i = 0; i < cols; ++i) {
        x[i] = rng.uniformInt(-127, 127);
        expected += std::int64_t(weights[cols + i].twiceValue()) * x[i];
    }
    EXPECT_EQ(neuron.computeSerial(x, 8), expected);
}

TEST_F(CompilerTest, SlackSweepTradesAreaForRobustness)
{
    // More slack -> more grounded ports but the same wire count; a
    // skewed weight distribution that overflows tight slack compiles
    // cleanly with generous slack.
    const std::size_t rows = 2, cols = 2048;
    std::vector<Fp4> skewed;
    for (std::size_t i = 0; i < rows * cols; ++i) {
        skewed.push_back(i % 10 == 0 ? Fp4::quantize(-2.0)
                                     : Fp4::quantize(1.0));
    }
    const auto tight = compiler_.compile(tmplFor(cols, 1.0), skewed,
                                         rows, cols);
    const auto roomy = compiler_.compile(tmplFor(cols, 2.0), skewed,
                                         rows, cols);
    EXPECT_FALSE(tight.drcClean());
    EXPECT_TRUE(roomy.drcClean());
    EXPECT_GT(roomy.stats().groundedPorts, 0u);
}

} // namespace
} // namespace hnlpu
