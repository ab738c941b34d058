/**
 * @file
 * Weight-update re-spin walkthrough (paper Sections 3.2 and 8,
 * "Model Updates" / blue-green deployment).
 *
 * Shows the full Sea-of-Neurons update loop on a miniature model:
 *   1. compile v1 weights onto the prefabricated template (hncc),
 *   2. "fine-tune" the weights (perturb a fraction of them),
 *   3. re-compile only the metal-embedding wires onto the *same*
 *      template -- the silicon never changes, so only the 10 ME mask
 *      layers re-spin,
 *   4. price the re-spin and verify the new wiring computes the new
 *      model bit-exactly.
 */

#include <cstdio>

#include "common/rng.hh"
#include "econ/nre.hh"
#include "hn/hn_array.hh"
#include "hn/hn_neuron.hh"
#include "hncc/compiler.hh"
#include "model/model_zoo.hh"

int
main()
{
    using namespace hnlpu;

    const std::size_t rows = 8, cols = 512;
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = cols;
    tmpl.portsPerSlice = 64;
    tmpl.slackFactor = 2.0;

    std::printf("Sea-of-Neurons weight-update re-spin demo "
                "(%zu x %zu block)\n\n", rows, cols);

    // -- v1 tapeout --------------------------------------------------------
    HnCompiler compiler(n5Technology());
    auto v1 = syntheticFp4Weights(rows * cols, 1);
    const auto plan_v1 = compiler.compile(tmpl, v1, rows, cols);
    std::printf("v1 compile: %zu wires, density %.0f%%, %s\n",
                plan_v1.stats().wires,
                plan_v1.stats().routingDensity * 100.0,
                plan_v1.drcClean() ? "DRC clean" : "VIOLATIONS");

    // -- annual fine-tune: ~20%% of weights move one FP4 step --------------
    auto v2 = v1;
    Rng rng(2027);
    std::size_t changed = 0;
    for (auto &w : v2) {
        if (rng.uniform01() < 0.2) {
            w = Fp4::quantize(w.value() + rng.gaussian(0.0, 0.8));
            ++changed;
        }
    }
    std::printf("fine-tune:  %zu of %zu weights changed\n", changed,
                v2.size());

    // -- v2 re-spin on the SAME prefabricated template ----------------------
    const auto plan_v2 = compiler.compile(tmpl, v2, rows, cols);
    std::printf("v2 compile: %zu wires, density %.0f%%, %s "
                "(same silicon, new metal only)\n\n",
                plan_v2.stats().wires,
                plan_v2.stats().routingDensity * 100.0,
                plan_v2.drcClean() ? "DRC clean" : "VIOLATIONS");

    // The re-wired neurons compute the NEW model exactly.
    const HnArray v2_row(tmpl, plan_v2.topologies()[0].recoverWeights(), 1,
                         cols);
    const HardwiredNeuron v2_neuron = v2_row.neuron(0);
    std::vector<std::int64_t> x(cols);
    std::int64_t expected = 0;
    for (std::size_t i = 0; i < cols; ++i) {
        x[i] = rng.uniformInt(-127, 127);
        expected += std::int64_t(v2[i].twiceValue()) * x[i];
    }
    std::printf("v2 neuron[0] bit-serial result: %lld (expected %lld) "
                "%s\n\n",
                static_cast<long long>(v2_neuron.computeSerial(x, 8)),
                static_cast<long long>(expected),
                v2_neuron.computeSerial(x, 8) == expected ? "[exact]"
                                                          : "[MISMATCH]");

    // -- what the update costs at gpt-oss scale -----------------------------
    HnlpuCostModel cost(n5Technology(), MaskStack{});
    const auto bd = cost.breakdown(gptOss120b());
    std::printf("At gpt-oss scale the re-spin needs only the 10 "
                "ME mask layers per chip:\n");
    std::printf("  initial tapeout: %s ~ %s\n",
                dollarString(bd.initialBuild(1).lo).c_str(),
                dollarString(bd.initialBuild(1).hi).c_str());
    std::printf("  annual re-spin:  %s ~ %s  (%.0f%% cheaper)\n",
                dollarString(bd.respin(1).lo).c_str(),
                dollarString(bd.respin(1).hi).c_str(),
                (1.0 - bd.respin(1).mid() / bd.initialBuild(1).mid()) *
                    100.0);
    std::printf("  turnaround: ~6-8 weeks (blue-green deployment: the "
                "'green' HNLPU is fabbed\n  while the 'blue' one keeps "
                "serving traffic)\n");
    return 0;
}
