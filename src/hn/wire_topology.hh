/**
 * @file
 * Metal-Embedding wire topology.
 *
 * In the Sea-of-Neurons architecture the silicon under every neuron is
 * parameter independent: 16 POPCNT accumulator regions (one per FP4 code),
 * 16 constant multipliers and a small adder tree are prefabricated.  The
 * weights live purely in which region each input wire lands in (paper
 * Fig. 5/6).  This module models that programming step:
 *
 *  - a SeaOfNeuronsTemplate describes the prefabricated accumulator
 *    capacity (slices x ports, with slack for weight-value imbalance);
 *  - programming a weight vector produces a WireTopology: for every FP4
 *    code, the list of input indices routed into that region, plus the
 *    grounded (unused) port count;
 *  - programming fails loudly if a region overflows its prefabricated
 *    capacity (SeaOfNeuronsTemplate::fitRegions), mirroring a DRC
 *    failure in the metal fill flow.
 *
 * hncc and the gate-level datapath read WireTopology's input lists;
 * HnArray programs its rows into its own flat wiring under the same
 * capacity rule.
 */

#ifndef HNLPU_HN_WIRE_TOPOLOGY_HH
#define HNLPU_HN_WIRE_TOPOLOGY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arith/fp4.hh"

namespace hnlpu {

/** Prefabricated accumulator capacity for one Hardwired-Neuron. */
struct SeaOfNeuronsTemplate
{
    /** Fan-in of the neuron (model hidden size for a dense row). */
    std::size_t inputCount = 0;
    /** Ports per accumulator slice (wiring granularity). */
    std::size_t portsPerSlice = 64;
    /**
     * Capacity slack: total ports across all 16 regions =
     * slackFactor * inputCount (rounded up to slices).  The paper sizes
     * accumulators "with sufficient slackness" to absorb weight-value
     * imbalance; slices are redistributable between regions via metal.
     */
    double slackFactor = 2.0;

    /** Total slices prefabricated for this neuron. */
    std::size_t totalSlices() const;
    /** Total ports prefabricated for this neuron. */
    std::size_t totalPorts() const;

    /** Slices a value region of @p wires wires takes (0 when empty). */
    std::size_t slicesFor(std::size_t wires) const;

    /**
     * The capacity rule of programming a weight @p histogram: each
     * non-zero code's region takes slicesFor() its count, at most
     * totalSlices() in all (zero weights need no wire).
     * @return the ports left grounded, or nullopt with @p error set
     *         when the regions do not fit
     */
    std::optional<std::size_t>
    fitRegions(const std::array<std::size_t, kFp4Codes> &histogram,
               std::string *error = nullptr) const;
};

/** The programmed routing of one neuron's inputs into value regions. */
class WireTopology
{
  public:
    /**
     * Program @p weights onto @p tmpl.
     * @return topology, or nullopt with @p error set when the template
     *         capacity cannot host the weight histogram.
     */
    static std::optional<WireTopology>
    program(const SeaOfNeuronsTemplate &tmpl,
            const std::vector<Fp4> &weights, std::string *error = nullptr);

    /** Input indices routed into the region of @p code. */
    const std::vector<std::uint32_t> &region(std::uint8_t code) const;

    /** Number of slices allocated to the region of @p code. */
    std::size_t regionSlices(std::uint8_t code) const;

    /** Ports tied to ground (allocated but unused). */
    std::size_t groundedPorts() const;

    /** Total metal embedding wires (== live inputs, zeros excluded). */
    std::size_t wireCount() const;

    const SeaOfNeuronsTemplate &tmpl() const { return tmpl_; }

    /** Histogram of weight codes (16 buckets). */
    const std::array<std::size_t, kFp4Codes> &histogram() const
    {
        return histogram_;
    }

    /**
     * Reconstruct the weight vector from the wiring (zero weights for
     * unrouted inputs).  Round-trips program() up to the +0/-0
     * distinction, which carries no information in the fabric.
     */
    std::vector<Fp4> recoverWeights() const;

  private:
    SeaOfNeuronsTemplate tmpl_;
    std::array<std::vector<std::uint32_t>, kFp4Codes> regions_;
    std::array<std::size_t, kFp4Codes> histogram_{};
    std::size_t groundedPorts_ = 0;
};

} // namespace hnlpu

#endif // HNLPU_HN_WIRE_TOPOLOGY_HH
