#include "hn/wire_topology.hh"

#include "common/logging.hh"
#include <algorithm>

#include "common/math_util.hh"

namespace hnlpu {

std::size_t
SeaOfNeuronsTemplate::totalSlices() const
{
    const std::size_t ports = static_cast<std::size_t>(
        static_cast<double>(inputCount) * slackFactor + 0.5);
    // Every FP4 value region is prefabricated with at least one slice,
    // so a neuron always has >= 16 slices regardless of fan-in.
    return std::max<std::size_t>(kFp4Codes,
                                 ceilDiv(ports, portsPerSlice));
}

std::size_t
SeaOfNeuronsTemplate::totalPorts() const
{
    return totalSlices() * portsPerSlice;
}

std::size_t
SeaOfNeuronsTemplate::slicesFor(std::size_t wires) const
{
    // Every non-empty region needs at least one slice.
    return wires == 0 ? 0 : ceilDiv(wires, portsPerSlice);
}

std::optional<std::size_t>
SeaOfNeuronsTemplate::fitRegions(
    const std::array<std::size_t, kFp4Codes> &histogram,
    std::string *error) const
{
    std::size_t used_slices = 0, wires = 0;
    for (int code = 0; code < kFp4Codes; ++code) {
        if (Fp4::fromCode(static_cast<std::uint8_t>(code)).isZero())
            continue;
        used_slices += slicesFor(histogram[code]);
        wires += histogram[code];
    }
    if (used_slices > totalSlices()) {
        if (error) {
            *error = "weight histogram needs " +
                     std::to_string(used_slices) + " slices but only " +
                     std::to_string(totalSlices()) +
                     " are prefabricated";
        }
        return std::nullopt;
    }
    return used_slices * portsPerSlice - wires;
}

std::optional<WireTopology>
WireTopology::program(const SeaOfNeuronsTemplate &tmpl,
                      const std::vector<Fp4> &weights, std::string *error)
{
    if (weights.size() != tmpl.inputCount) {
        if (error) {
            *error = "weight count " + std::to_string(weights.size()) +
                     " != template fan-in " +
                     std::to_string(tmpl.inputCount);
        }
        return std::nullopt;
    }

    WireTopology topo;
    topo.tmpl_ = tmpl;

    for (std::size_t i = 0; i < weights.size(); ++i) {
        const Fp4 w = weights[i];
        topo.histogram_[w.code()]++;
        // Zero weights need no wire at all: the input is simply not
        // routed anywhere (its would-be port stays grounded).
        if (w.isZero())
            continue;
        topo.regions_[w.code()].push_back(
            static_cast<std::uint32_t>(i));
    }

    const auto grounded = tmpl.fitRegions(topo.histogram_, error);
    if (!grounded)
        return std::nullopt;
    topo.groundedPorts_ = *grounded;
    return topo;
}

const std::vector<std::uint32_t> &
WireTopology::region(std::uint8_t code) const
{
    hnlpu_assert(code < kFp4Codes, "region code out of range");
    return regions_[code];
}

std::size_t
WireTopology::regionSlices(std::uint8_t code) const
{
    hnlpu_assert(code < kFp4Codes, "region code out of range");
    return tmpl_.slicesFor(regions_[code].size());
}

std::size_t
WireTopology::groundedPorts() const
{
    return groundedPorts_;
}

std::vector<Fp4>
WireTopology::recoverWeights() const
{
    std::vector<Fp4> weights(tmpl_.inputCount, Fp4::quantize(0.0));
    for (int code = 0; code < kFp4Codes; ++code) {
        for (std::uint32_t input : regions_[code]) {
            hnlpu_assert(input < weights.size(), "corrupt topology");
            weights[input] = Fp4::fromCode(
                static_cast<std::uint8_t>(code));
        }
    }
    return weights;
}

std::size_t
WireTopology::wireCount() const
{
    std::size_t wires = 0;
    for (const auto &region : regions_)
        wires += region.size();
    return wires;
}

} // namespace hnlpu
