#include "gates/hn_datapath.hh"

#include "common/logging.hh"
#include "common/math_util.hh"
#include "arith/bitserial.hh"

namespace hnlpu {

HnDatapath::HnDatapath(const WireTopology &topology, unsigned width)
    : width_(width), inputCount_(topology.tmpl().inputCount)
{
    hnlpu_assert(width_ >= 2 && width_ <= 16, "bad datapath width");

    // External pins: one serial bit line per template input plus the
    // sign-plane strobe.
    xInputs_.reserve(inputCount_);
    for (std::size_t i = 0; i < inputCount_; ++i) {
        std::string name = "x";
        name += std::to_string(i);
        xInputs_.push_back(netlist_.addInput(name));
    }
    firstCycle_ = netlist_.addInput("first_cycle");

    // Accumulator width: region counts fit in ceil(log2(n+1)) bits;
    // after `width` Horner doublings the total needs width + count
    // bits plus sign.
    const auto &twice = fp4TwiceValueTable();
    std::vector<std::vector<NetId>> products;

    for (int code = 0; code < kFp4Codes; ++code) {
        const auto &region =
            topology.region(static_cast<std::uint8_t>(code));
        if (region.empty() || twice[code] == 0)
            continue;

        // The metal embedding: route each wired input's serial bit
        // line into this region's POPCNT.
        std::vector<NetId> taps;
        taps.reserve(region.size());
        for (std::uint32_t input : region)
            taps.push_back(xInputs_[input]);
        const std::vector<NetId> count = netlist_.addPopcount(taps);

        // Serial Horner accumulator: acc' = 2*acc +/- count
        // (subtract exactly on the sign plane).
        const std::size_t acc_width = width_ + count.size() + 1;
        std::vector<NetId> acc(acc_width);
        for (auto &q : acc)
            q = netlist_.addDff(netlist_.zero());

        std::vector<NetId> shifted(acc_width);
        shifted[0] = netlist_.zero();
        for (std::size_t i = 1; i < acc_width; ++i)
            shifted[i] = acc[i - 1];

        std::vector<NetId> addend = netlist_.resizeBus(count, acc_width);
        // Counts are unsigned: force the extension bits to zero before
        // the conditional negation.
        for (std::size_t i = count.size(); i < acc_width; ++i)
            addend[i] = netlist_.zero();
        addend = netlist_.addXorAll(addend, firstCycle_);
        const std::vector<NetId> next =
            netlist_.addRippleAdder(shifted, addend, firstCycle_);
        for (std::size_t i = 0; i < acc_width; ++i)
            netlist_.setDffInput(acc[i], next[i]);

        // CSD shift-add constant multiplier for 2*w.
        const std::vector<int> digits = csdDigits(twice[code]);
        const std::size_t prod_width = acc_width + digits.size() + 1;
        std::vector<NetId> product(prod_width, netlist_.zero());
        bool first_term = true;
        for (std::size_t d = 0; d < digits.size(); ++d) {
            if (digits[d] == 0)
                continue;
            // acc << d, sign extended to the product width.
            std::vector<NetId> term(prod_width, netlist_.zero());
            for (std::size_t i = 0; i < prod_width - d; ++i) {
                term[i + d] =
                    i < acc_width ? acc[i] : acc[acc_width - 1];
            }
            if (first_term && digits[d] > 0) {
                product = term;
            } else if (first_term) {
                // Negate: ~term + 1.
                term = netlist_.addXorAll(term, netlist_.one());
                product = netlist_.addRippleAdder(
                    std::vector<NetId>(prod_width, netlist_.zero()),
                    term, netlist_.one());
            } else if (digits[d] > 0) {
                product = netlist_.addRippleAdder(product, term,
                                                  netlist_.zero());
            } else {
                term = netlist_.addXorAll(term, netlist_.one());
                product = netlist_.addRippleAdder(product, term,
                                                  netlist_.one());
            }
            first_term = false;
        }
        products.push_back(std::move(product));
    }

    // Final combinational adder tree over the region products.
    if (products.empty()) {
        resultBus_ = {netlist_.zero()};
    } else {
        std::size_t out_width = 0;
        for (const auto &p : products)
            out_width = std::max(out_width, p.size());
        out_width += ceilLog2(std::max<std::size_t>(products.size(), 2));
        std::vector<NetId> total = netlist_.resizeBus(products.front(),
                                                      out_width);
        for (std::size_t i = 1; i < products.size(); ++i) {
            total = netlist_.addRippleAdder(
                total, netlist_.resizeBus(products[i], out_width),
                netlist_.zero());
        }
        resultBus_ = total;
    }

    sim_ = std::make_unique<GateSim>(netlist_);
}

std::int64_t
HnDatapath::evaluate(const std::vector<std::int64_t> &activations)
{
    hnlpu_assert(activations.size() == inputCount_,
                 "activation count mismatch");
    const std::int64_t lo = -(std::int64_t(1) << (width_ - 1));
    const std::int64_t hi = (std::int64_t(1) << (width_ - 1)) - 1;
    for (std::int64_t v : activations) {
        hnlpu_assert(v >= lo && v <= hi, "activation out of range");
    }

    sim_->reset();
    // Stream MSB first (Horner order); assert the strobe on the sign
    // plane only.
    for (int bit = int(width_) - 1; bit >= 0; --bit) {
        sim_->setInput(firstCycle_, bit == int(width_) - 1);
        for (std::size_t i = 0; i < inputCount_; ++i) {
            const auto u = static_cast<std::uint64_t>(activations[i]);
            sim_->setInput(xInputs_[i], (u >> bit) & 1ULL);
        }
        sim_->step();
    }
    return sim_->readBus(resultBus_);
}

} // namespace hnlpu
