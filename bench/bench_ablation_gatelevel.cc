/**
 * @file
 * Ablation: gate-level structure of the bit-serial Hardwired-Neuron.
 *
 * Synthesises HN datapaths at several fan-ins, verifies each against
 * the functional model on random vectors, and reports the structural
 * cell counts -- an independent, bottom-up cross-check of the
 * calibrated Metal-Embedding area constant (the synthesised datapath
 * is a fully-parallel single-neuron instance; the production fabric
 * time-multiplexes accumulator slices, which is where the remaining
 * density gap comes from).
 */

#include "bench_util.hh"
#include "common/rng.hh"
#include "gates/hn_datapath.hh"
#include "hn/hn_array.hh"
#include "hn/hn_neuron.hh"
#include "chip/timing.hh"
#include "phys/technology.hh"

int
main()
{
    using namespace hnlpu;

    bench::banner("Gate-level HN datapath: structure vs fan-in "
                  "(8-bit activations)");

    const auto tech = n5Technology();
    Table table({"Fan-in", "Comb gates", "DFFs", "Logic depth",
                 "Tr estimate", "Tr / weight", "Verified"});
    for (std::size_t fan_in : {64u, 256u, 720u, 1440u}) {
        SeaOfNeuronsTemplate tmpl;
        tmpl.inputCount = fan_in;
        tmpl.portsPerSlice = 64;
        tmpl.slackFactor = 4.0;
        auto weights = syntheticFp4Weights(fan_in, fan_in);
        auto topo = *WireTopology::program(tmpl, weights);
        const HnArray row(tmpl, weights, 1, fan_in);
        const HardwiredNeuron functional = row.neuron(0);
        HnDatapath circuit(topo, 8);

        // Spot-verify the circuit before reporting its structure.
        Rng rng(fan_in);
        bool ok = true;
        for (int trial = 0; trial < 3 && ok; ++trial) {
            std::vector<std::int64_t> x(fan_in);
            for (auto &v : x)
                v = rng.uniformInt(-128, 127);
            ok = circuit.evaluate(x) == functional.computeReference(x);
        }

        const auto stats = circuit.stats();
        table.addRow({
            std::to_string(fan_in),
            commaString(double(stats.combGates)),
            commaString(double(stats.dffs)),
            std::to_string(stats.logicDepth),
            commaString(double(stats.transistorEstimate)),
            commaString(double(stats.transistorEstimate) /
                            double(fan_in),
                        1),
            ok ? "bit-exact" : "MISMATCH",
        });
    }
    table.print();

    std::printf(
        "\nCalibrated Metal-Embedding silicon: %.1f transistors per "
        "weight\n(= %.4f um^2 at %.0f MTr/mm^2).  The fully-parallel "
        "synthesised instance above\nspends more because every region "
        "gets a dedicated POPCNT tree and Horner\naccumulator; the "
        "production fabric streams %zu ports per cycle through shared\n"
        "slices, amortising those adders -- the bit-serial 'time for "
        "area' trade the\npaper's Fig. 3 describes.\n",
        tech.areaMePerWeightUm2 * tech.transistorDensityPerMm2 / 1e6,
        tech.areaMePerWeightUm2, tech.transistorDensityPerMm2 / 1e6,
        ChipTimingParams{}.hnSerialWidth);
    return 0;
}
