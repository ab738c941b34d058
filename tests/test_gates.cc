/**
 * @file
 * Tests for the gate-level netlist simulator and the synthesised
 * bit-serial Hardwired-Neuron datapath: the circuit, clocked bit by
 * bit, must reproduce the functional model exactly (the paper's
 * RTL-verification step).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "gates/hn_datapath.hh"
#include "gates/netlist.hh"
#include "hn/hn_array.hh"
#include "hn/hn_neuron.hh"

namespace hnlpu {
namespace {

TEST(NetlistTest, BasicGates)
{
    Netlist n;
    const NetId a = n.addInput("a");
    const NetId b = n.addInput("b");
    const NetId and_g = n.addAnd(a, b);
    const NetId or_g = n.addOr(a, b);
    const NetId xor_g = n.addXor(a, b);
    const NetId not_g = n.addNot(a);

    GateSim sim(n);
    for (int av = 0; av <= 1; ++av) {
        for (int bv = 0; bv <= 1; ++bv) {
            sim.setInput(a, av);
            sim.setInput(b, bv);
            sim.settle();
            EXPECT_EQ(sim.read(and_g), av && bv);
            EXPECT_EQ(sim.read(or_g), av || bv);
            EXPECT_EQ(sim.read(xor_g), av != bv);
            EXPECT_EQ(sim.read(not_g), !av);
        }
    }
}

TEST(NetlistTest, Majority3)
{
    Netlist n;
    const NetId a = n.addInput("a"), b = n.addInput("b"),
                c = n.addInput("c");
    const NetId m = n.addMaj3(a, b, c);
    GateSim sim(n);
    for (int v = 0; v < 8; ++v) {
        sim.setInput(a, v & 1);
        sim.setInput(b, (v >> 1) & 1);
        sim.setInput(c, (v >> 2) & 1);
        sim.settle();
        const int ones = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
        EXPECT_EQ(sim.read(m), ones >= 2) << "v=" << v;
    }
}

TEST(NetlistTest, DffHoldsStateAcrossSteps)
{
    Netlist n;
    const NetId d = n.addInput("d");
    const NetId q = n.addDff(d);
    GateSim sim(n);
    EXPECT_FALSE(sim.read(q)); // initialised to 0
    sim.setInput(d, true);
    sim.settle();
    EXPECT_FALSE(sim.read(q)); // not yet clocked
    sim.step();
    EXPECT_TRUE(sim.read(q));
    sim.setInput(d, false);
    sim.step();
    EXPECT_FALSE(sim.read(q));
}

TEST(NetlistTest, DffFeedbackCounter)
{
    // A 1-bit toggle: q' = ~q.
    Netlist n;
    const NetId q = n.addDff(0);
    const NetId nq = n.addNot(q);
    n.setDffInput(q, nq);
    GateSim sim(n);
    bool expected = false;
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(sim.read(q), expected) << "cycle " << i;
        sim.step();
        expected = !expected;
    }
}

TEST(NetlistTest, RippleAdderExhaustiveSmall)
{
    Netlist n;
    std::vector<NetId> a(4), b(4);
    for (auto &x : a)
        x = n.addInput("a");
    for (auto &x : b)
        x = n.addInput("b");
    NetId cout = 0;
    const auto sum = n.addRippleAdder(a, b, n.zero(), &cout);
    GateSim sim(n);
    for (int av = 0; av < 16; ++av) {
        for (int bv = 0; bv < 16; ++bv) {
            for (int i = 0; i < 4; ++i) {
                sim.setInput(a[i], (av >> i) & 1);
                sim.setInput(b[i], (bv >> i) & 1);
            }
            sim.settle();
            int got = 0;
            for (int i = 0; i < 4; ++i)
                got |= int(sim.read(sum[i])) << i;
            got |= int(sim.read(cout)) << 4;
            EXPECT_EQ(got, av + bv) << av << "+" << bv;
        }
    }
}

TEST(NetlistTest, PopcountMatchesCount)
{
    Rng rng(3);
    for (std::size_t width : {1u, 2u, 3u, 7u, 16u, 33u}) {
        Netlist n;
        std::vector<NetId> bits(width);
        for (auto &x : bits)
            x = n.addInput("x");
        const auto count = n.addPopcount(bits);
        GateSim sim(n);
        for (int trial = 0; trial < 20; ++trial) {
            int expected = 0;
            for (std::size_t i = 0; i < width; ++i) {
                const bool v = rng.uniform01() < 0.5;
                sim.setInput(bits[i], v);
                expected += v;
            }
            sim.settle();
            int got = 0;
            for (std::size_t i = 0; i < count.size(); ++i)
                got |= int(sim.read(count[i])) << i;
            EXPECT_EQ(got, expected) << "width " << width;
        }
    }
}

TEST(NetlistTest, StatsCountCells)
{
    Netlist n;
    const NetId a = n.addInput("a"), b = n.addInput("b");
    n.addDff(n.addXor(a, b));
    const auto stats = n.stats();
    EXPECT_EQ(stats.inputs, 2u);
    EXPECT_EQ(stats.combGates, 1u);
    EXPECT_EQ(stats.dffs, 1u);
    EXPECT_GE(stats.transistorEstimate, 8u + 24u);
    EXPECT_EQ(stats.logicDepth, 1u);
}

WireTopology
makeTopology(std::size_t fan_in, std::uint64_t seed)
{
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = fan_in;
    tmpl.portsPerSlice = 16;
    tmpl.slackFactor = 4.0;
    auto topo = WireTopology::program(
        tmpl, syntheticFp4Weights(fan_in, seed));
    return *topo;
}

class DatapathEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(DatapathEquivalence, CircuitMatchesFunctionalModel)
{
    const auto [fan_in, width] = GetParam();
    WireTopology topo = makeTopology(fan_in, fan_in * 7 + width);
    const HnArray row(topo.tmpl(), topo.recoverWeights(), 1, fan_in);
    const HardwiredNeuron functional = row.neuron(0);
    HnDatapath circuit(topo, width);

    Rng rng(fan_in + width);
    const std::int64_t lo = -(std::int64_t(1) << (width - 1));
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::int64_t> x(fan_in);
        for (auto &v : x)
            v = rng.uniformInt(lo, hi);
        EXPECT_EQ(circuit.evaluate(x), functional.computeReference(x))
            << "fan_in=" << fan_in << " width=" << width
            << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DatapathEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(4, 16, 64, 200),
                       ::testing::Values(4u, 8u, 12u)));

TEST(DatapathTest, ExtremeActivationValues)
{
    const unsigned width = 8;
    WireTopology topo = makeTopology(32, 5);
    const HnArray row(topo.tmpl(), topo.recoverWeights(), 1, 32);
    const HardwiredNeuron functional = row.neuron(0);
    HnDatapath circuit(topo, width);

    // All max-negative, all max-positive, alternating.
    for (std::int64_t fill : {-128ll, 127ll, 0ll}) {
        std::vector<std::int64_t> x(32, fill);
        EXPECT_EQ(circuit.evaluate(x), functional.computeReference(x))
            << "fill " << fill;
    }
    std::vector<std::int64_t> alt(32);
    for (std::size_t i = 0; i < alt.size(); ++i)
        alt[i] = (i % 2) ? 127 : -128;
    EXPECT_EQ(circuit.evaluate(alt), functional.computeReference(alt));
}

TEST(DatapathTest, ReusableAcrossEvaluations)
{
    WireTopology topo = makeTopology(24, 9);
    const HnArray row(topo.tmpl(), topo.recoverWeights(), 1, 24);
    const HardwiredNeuron functional = row.neuron(0);
    HnDatapath circuit(topo, 8);
    Rng rng(1);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::int64_t> x(24);
        for (auto &v : x)
            v = rng.uniformInt(-128, 127);
        EXPECT_EQ(circuit.evaluate(x), functional.computeReference(x));
    }
}

TEST(DatapathTest, StructuralStatsReasonable)
{
    WireTopology topo = makeTopology(128, 13);
    HnDatapath circuit(topo, 8);
    const auto stats = circuit.stats();
    // 128 serial inputs + strobe.
    EXPECT_EQ(stats.inputs, 129u);
    // POPCNT trees dominate: at least one FA-equivalent per wired
    // input, plus accumulators and multipliers.
    EXPECT_GT(stats.combGates, topo.wireCount());
    EXPECT_GT(stats.dffs, 0u);
    EXPECT_GT(stats.transistorEstimate, 1000u);
    EXPECT_EQ(circuit.cyclesPerGemv(), 8u);
}

TEST(DatapathTest, ZeroWeightsDrawNoLogic)
{
    // A topology with many zero weights synthesises a smaller circuit
    // than a dense one of the same fan-in.
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = 64;
    tmpl.portsPerSlice = 16;
    tmpl.slackFactor = 4.0;
    std::vector<Fp4> sparse(64, Fp4::quantize(0.0));
    sparse[0] = Fp4::quantize(1.0);
    std::vector<Fp4> dense(64, Fp4::quantize(1.0));
    auto sparse_topo = *WireTopology::program(tmpl, sparse);
    auto dense_topo = *WireTopology::program(tmpl, dense);
    HnDatapath small(sparse_topo, 8);
    HnDatapath big(dense_topo, 8);
    EXPECT_LT(small.stats().combGates, big.stats().combGates / 4);
}

} // namespace
} // namespace hnlpu
