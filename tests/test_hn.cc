/**
 * @file
 * Tests for the Hardwired-Neuron functional model: wire topology
 * programming, bit-exact equivalence of the Metal-Embedding serial path
 * against the reference integer path and the Cell-Embedding baseline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/rng.hh"
#include "hn/ce_neuron.hh"
#include "hn/hn_array.hh"
#include "hn/hn_neuron.hh"
#include "hn/hn_simd.hh"
#include "hn/wire_topology.hh"

namespace hnlpu {
namespace {

SeaOfNeuronsTemplate
makeTemplate(std::size_t inputs, double slack = 4.0,
             std::size_t ports_per_slice = 16)
{
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = inputs;
    tmpl.portsPerSlice = ports_per_slice;
    tmpl.slackFactor = slack;
    return tmpl;
}

TEST(WireTopology, ProgramsRegionsByWeightValue)
{
    auto tmpl = makeTemplate(6);
    std::vector<Fp4> weights{
        Fp4::quantize(1.0), Fp4::quantize(1.0), Fp4::quantize(-2.0),
        Fp4::quantize(0.0), Fp4::quantize(6.0), Fp4::quantize(1.0)};
    auto topo = WireTopology::program(tmpl, weights);
    ASSERT_TRUE(topo.has_value());

    const auto one = Fp4::quantize(1.0).code();
    const auto minus_two = Fp4::quantize(-2.0).code();
    const auto six = Fp4::quantize(6.0).code();
    EXPECT_EQ(topo->region(one).size(), 3u);
    EXPECT_EQ(topo->region(minus_two).size(), 1u);
    EXPECT_EQ(topo->region(six).size(), 1u);
    // The zero weight gets no wire.
    EXPECT_EQ(topo->wireCount(), 5u);
    EXPECT_EQ(topo->histogram()[one], 3u);
}

TEST(WireTopology, RejectsWrongFanIn)
{
    auto tmpl = makeTemplate(4);
    std::string error;
    auto topo = WireTopology::program(
        tmpl, std::vector<Fp4>(3, Fp4::quantize(1.0)), &error);
    EXPECT_FALSE(topo.has_value());
    EXPECT_NE(error.find("fan-in"), std::string::npos);
}

TEST(WireTopology, RejectsCapacityOverflow)
{
    // A severely undersized template (slack 0.5) cannot host a weight
    // vector whose values all collapse into a single region.
    auto tmpl = makeTemplate(1024, /*slack=*/0.5, /*ports_per_slice=*/32);
    ASSERT_EQ(tmpl.totalSlices(), 16u);
    std::vector<Fp4> weights(1024, Fp4::quantize(1.0));
    std::string error;
    auto topo = WireTopology::program(tmpl, weights, &error);
    EXPECT_FALSE(topo.has_value());
    EXPECT_NE(error.find("slices"), std::string::npos);
}

TEST(WireTopology, SlackAbsorbsImbalance)
{
    // All weights share one value: one region needs all the ports.
    auto tmpl = makeTemplate(128, /*slack=*/1.5, /*ports_per_slice=*/32);
    std::vector<Fp4> weights(128, Fp4::quantize(1.5));
    auto topo = WireTopology::program(tmpl, weights);
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->region(Fp4::quantize(1.5).code()).size(), 128u);
    EXPECT_EQ(topo->regionSlices(Fp4::quantize(1.5).code()), 4u);
}

TEST(WireTopology, GroundedPortsAccounting)
{
    auto tmpl = makeTemplate(10, /*slack=*/3.0, /*ports_per_slice=*/8);
    std::vector<Fp4> weights(10, Fp4::quantize(2.0));
    auto topo = WireTopology::program(tmpl, weights);
    ASSERT_TRUE(topo.has_value());
    // 10 wires in ceil(10/8)=2 slices of 8 ports -> 6 grounded.
    EXPECT_EQ(topo->groundedPorts(), 6u);
}

// A neuron is a view of one row of its array's wiring and owns no
// memory.
static_assert(std::is_trivially_copyable_v<HardwiredNeuron>);

TEST(HardwiredNeuron, MatchesReferenceSmall)
{
    auto tmpl = makeTemplate(4);
    std::vector<Fp4> weights{Fp4::quantize(1.0), Fp4::quantize(1.0),
                             Fp4::quantize(3.0), Fp4::quantize(3.0)};
    const HnArray array(tmpl, weights, 1, weights.size());
    const HardwiredNeuron hn = array.neuron(0);

    std::vector<std::int64_t> x{1, 2, 3, 4};
    // a(x1+x2) + c(x3+x4) with a=1, c=3 -> 2*(3 + 21) = 48.
    EXPECT_EQ(hn.computeReference(x), 48);
    EXPECT_EQ(hn.computeSerial(x, 8), 48);
}

class HnEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(HnEquivalence, SerialEqualsReferenceEqualsCe)
{
    const auto [fan_in, width] = GetParam();
    Rng rng(fan_in * 131 + width);
    const std::int64_t lo = -(std::int64_t(1) << (width - 1));
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;

    for (int trial = 0; trial < 10; ++trial) {
        auto weights = syntheticFp4Weights(fan_in, trial * 977 + fan_in);
        auto tmpl = makeTemplate(fan_in);
        const HnArray array(tmpl, weights, 1, fan_in);
        const HardwiredNeuron hn = array.neuron(0);
        CellEmbeddedNeuron ce(weights);

        std::vector<std::int64_t> x(fan_in);
        std::int64_t direct = 0;
        for (std::size_t i = 0; i < fan_in; ++i) {
            x[i] = rng.uniformInt(lo, hi);
            direct += std::int64_t(weights[i].twiceValue()) * x[i];
        }
        EXPECT_EQ(hn.computeSerial(x, width), direct);
        EXPECT_EQ(hn.computeReference(x), direct);
        EXPECT_EQ(ce.compute(x), direct);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HnEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 16, 100, 720),
                       ::testing::Values(4u, 8u, 12u)));

TEST(HardwiredNeuron, ActivityCountersPopulate)
{
    const std::size_t fan_in = 64;
    auto weights = syntheticFp4Weights(fan_in, 5);
    const HnArray array(makeTemplate(fan_in), weights, 1, fan_in);
    const HardwiredNeuron hn = array.neuron(0);

    std::vector<std::int64_t> x(fan_in, 1);
    HnActivity act;
    hn.computeSerial(x, 8, &act);
    EXPECT_GT(act.cycles, 8u);        // width + tree drain
    EXPECT_GT(act.popcountBitOps, 0u);
    EXPECT_LE(act.multiplyOps, 16u);  // at most one per value region
    EXPECT_GT(act.treeAddOps, 0u);
}

TEST(CeNeuron, ActivityCountsOneMultiplierPerNonzeroWeight)
{
    std::vector<Fp4> weights{Fp4::quantize(1.0), Fp4::quantize(0.0),
                             Fp4::quantize(-4.0), Fp4::quantize(1.0)};
    CellEmbeddedNeuron ce(weights);
    CeActivity act;
    ce.compute({1, 1, 1, 1}, &act);
    EXPECT_EQ(act.multiplyOps, 3u);
    EXPECT_GE(act.cycles, 2u);
}

TEST(HnArray, GemvMatchesMatrixMath)
{
    // The independent oracle: the reference GEMV and every kernel --
    // Simd on every tier, and on its Packed fallback at width 24 --
    // must equal sum_c 2*W[r][c] * x[c] computed from the weight
    // matrix, not from the wiring every kernel reads, and a dead row
    // must read 0.
    const std::size_t rows = 12, cols = 33;
    const std::uint32_t dead_row = 5;
    auto weights = syntheticFp4Weights(rows * cols, 77);
    HnArray array(makeTemplate(cols), weights, rows, cols, {dead_row});

    for (unsigned width : {8u, 24u}) {
        SCOPED_TRACE(width);
        Rng rng(99 + width);
        const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
        std::vector<std::int64_t> x(cols);
        for (auto &v : x)
            v = rng.uniformInt(-hi - 1, hi);
        std::vector<std::int64_t> expect(rows, 0);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                if (r != dead_row)
                    expect[r] += std::int64_t(
                        weights[r * cols + c].twiceValue()) * x[c];
            }
        }
        EXPECT_EQ(array.gemvReference(x), expect);
        for (HnKernel kernel : {HnKernel::Scalar, HnKernel::Packed}) {
            EXPECT_EQ(array.gemvSerial(x, width, nullptr, nullptr, kernel),
                      expect)
                << "kernel " << int(kernel);
        }
        for (HnSimdLevel level : hnSupportedSimdLevels()) {
            ScopedHnSimdLevel force(level);
            EXPECT_EQ(array.gemvSerial(x, width, nullptr, nullptr,
                                       HnKernel::Simd),
                      expect)
                << hnSimdLevelName();
        }
    }
}

TEST(HnArrayDeathTest, RefusesARowThatOverflowsItsTemplate)
{
    // 16 slices of 32 ports: row 0 (all zero weights) needs no wire,
    // but row 1 puts 1024 wires into one region, which needs 32 slices.
    const std::size_t cols = 1024;
    auto tmpl = makeTemplate(cols, /*slack=*/0.5, /*ports_per_slice=*/32);
    ASSERT_EQ(tmpl.totalSlices(), 16u);
    std::vector<Fp4> weights(cols, Fp4::quantize(0.0));
    weights.resize(2 * cols, Fp4::quantize(1.0));
    EXPECT_DEATH(HnArray(tmpl, weights, 2, cols),
                 "row 1 failed to program: weight histogram needs 32 "
                 "slices but only 16");
}

TEST(HnArray, GemvRealApproximatesFloatGemv)
{
    const std::size_t rows = 8, cols = 256;
    auto weights = syntheticFp4Weights(rows * cols, 1234);
    HnArray array(makeTemplate(cols), weights, rows, cols);

    Rng rng(555);
    std::vector<double> x(cols);
    for (auto &v : x)
        v = rng.gaussian(0.0, 1.0);

    auto approx = array.gemvReal(x, 12);
    for (std::size_t r = 0; r < rows; ++r) {
        double expect = 0.0;
        for (std::size_t c = 0; c < cols; ++c)
            expect += weights[r * cols + c].value() * x[c];
        // Error scales with fan-in * quantisation step.
        EXPECT_NEAR(approx[r], expect, 0.05 * cols / 256.0 + 0.05)
            << "row " << r;
    }
}

TEST(HnArray, StatsCountWiresAndZeros)
{
    const std::size_t rows = 4, cols = 64;
    auto weights = syntheticFp4Weights(rows * cols, 31);
    HnArray array(makeTemplate(cols), weights, rows, cols);
    auto stats = array.stats();
    EXPECT_EQ(stats.rows, rows);
    EXPECT_EQ(stats.cols, cols);
    EXPECT_EQ(stats.totalWires + stats.zeroWeights, rows * cols);
}

TEST(SyntheticWeights, HistogramUsesManyCodes)
{
    auto weights = syntheticFp4Weights(10000, 3);
    std::array<int, kFp4Codes> histogram{};
    for (const auto &w : weights)
        histogram[w.code()]++;
    int used = 0;
    for (int c = 0; c < kFp4Codes; ++c) {
        if (histogram[c] > 0)
            ++used;
    }
    EXPECT_GE(used, 10);
}

} // namespace
} // namespace hnlpu
