#include "hn/hn_neuron.hh"

#include <bit>

#include "arith/bitserial.hh"
#include "arith/csa.hh"
#include "common/logging.hh"

namespace hnlpu {

HardwiredNeuron::HardwiredNeuron(WireTopology topology)
    : topology_(std::move(topology))
{
    // Compile each non-empty region's input list into a packed mask
    // stripe.  This is the metalization-time step of the Packed kernel:
    // region membership is frozen with the wires, so the masks are
    // immutable after construction and shared by every evaluation.
    wordsPerPlane_ = (topology_.tmpl().inputCount + 63) / 64;
    for (int code = 0; code < kFp4Codes; ++code) {
        const auto &region =
            topology_.region(static_cast<std::uint8_t>(code));
        if (region.empty())
            continue;
        RegionMask mask;
        mask.code = static_cast<std::uint8_t>(code);
        mask.bits = static_cast<std::uint32_t>(region.size());
        mask.wordOffset = maskWords_.size();
        maskWords_.resize(maskWords_.size() + wordsPerPlane_, 0);
        std::uint64_t *words = maskWords_.data() + mask.wordOffset;
        for (std::uint32_t input : region)
            words[input / 64] |= std::uint64_t(1) << (input % 64);
        regionMasks_.push_back(mask);
    }
}

std::int64_t
HardwiredNeuron::computeSerial(
    const std::vector<std::int64_t> &activations, unsigned width,
    HnActivity *activity) const
{
    const auto &tmpl = topology_.tmpl();
    hnlpu_assert(activations.size() == tmpl.inputCount,
                 "activation count mismatch");

    BitSerializer serializer(activations, width);

    // One serial accumulator per FP4 value region.
    std::vector<SerialAccumulator> accumulators(kFp4Codes);
    std::size_t popcount_bits = 0;

    for (unsigned bit = 0; bit < width; ++bit) {
        const bool sign_plane = serializer.isSignPlane(bit);
        const std::vector<bool> plane = serializer.plane(bit);
        for (int code = 0; code < kFp4Codes; ++code) {
            const auto &region = topology_.region(
                static_cast<std::uint8_t>(code));
            if (region.empty())
                continue;
            std::int64_t count = 0;
            for (std::uint32_t input : region)
                count += plane[input] ? 1 : 0;
            popcount_bits += region.size();
            accumulators[code].addPlane(bit, sign_plane, count);
        }
    }

    // Constant multiply per region (2*w, exact integer) then reduce the
    // sixteen products with a CSA tree.
    const auto &twice = fp4TwiceValueTable();
    std::vector<std::int64_t> products;
    products.reserve(kFp4Codes);
    std::size_t multiplies = 0;
    for (int code = 0; code < kFp4Codes; ++code) {
        if (topology_.region(static_cast<std::uint8_t>(code)).empty())
            continue;
        products.push_back(accumulators[code].total() * twice[code]);
        ++multiplies;
    }
    const std::int64_t result = csaReduce(products);

    if (activity) {
        const CsaTreeShape tree = csaTreeShape(products.size());
        activity->cycles += bitSerialCycles(width, tree.depth);
        activity->popcountBitOps += popcount_bits;
        activity->multiplyOps += multiplies;
        activity->treeAddOps += tree.compressorCount + 1;
    }
    return result;
}

void
HardwiredNeuron::checkBatch(const PackedPlanes *planes,
                            std::size_t batch) const
{
    hnlpu_assert(batch >= 1 && batch <= kHnBatchChunk,
                 "batch ", batch, " outside [1, ", kHnBatchChunk, "]");
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(planes[b].laneCount() ==
                         topology_.tmpl().inputCount,
                     "activation count mismatch in batch column ", b);
        hnlpu_assert(planes[b].wordsPerPlane() == wordsPerPlane_,
                     "packed plane geometry mismatch in batch column ",
                     b);
        hnlpu_assert(planes[b].width() == planes[0].width(),
                     "batch columns must share one width");
    }
}

void
HardwiredNeuron::addActivity(unsigned width, std::size_t columns,
                             std::size_t region_bits,
                             HnActivity *activity) const
{
    if (!activity)
        return;
    // Logical wires examined (one per region input per plane), not host
    // words: the counters model the hardware popcount fabric, not the
    // emulation, so the shared mask loads and the Simd kernel's dot
    // product never change them.  A batch is exactly `columns`
    // single-column evaluations' worth of logical work.
    const CsaTreeShape tree = csaTreeShape(regionMasks_.size());
    activity->cycles += columns * bitSerialCycles(width, tree.depth);
    activity->popcountBitOps += columns * width * region_bits;
    activity->multiplyOps += columns * regionMasks_.size();
    activity->treeAddOps += columns * (tree.compressorCount + 1);
}

void
HardwiredNeuron::computePackedBatch(const PackedPlanes *planes,
                                    std::size_t batch, std::int64_t *out,
                                    HnActivity *activity) const
{
    checkBatch(planes, batch);
    const unsigned width = planes[0].width();

    // Per-(column, bit) plane base pointers, hoisted once per neuron
    // (width <= 63 by BitSerializer contract).
    const std::uint64_t *plane_ptr[kHnBatchChunk][63];
    for (std::size_t b = 0; b < batch; ++b) {
        for (unsigned bit = 0; bit < width; ++bit)
            plane_ptr[b][bit] = planes[b].plane(bit);
    }

    const auto &twice = fp4TwiceValueTable();
    const std::size_t words = wordsPerPlane_;
    for (std::size_t b = 0; b < batch; ++b)
        out[b] = 0;
    std::size_t region_bits = 0;

    // Region sum of a column: sum_bit (+-2^bit) * popcount_bit, the
    // identical int64 additions computeSerial's SerialAccumulator
    // performs plane by plane, so every column's region sum (and final
    // total) is bit-exact.  The constant multiply folds straight into
    // the running total: csaReduce() is an exact integer sum of the
    // per-region products, so accumulating them directly yields the
    // same value without computeSerial's per-row product vector.  The
    // sums stay in registers across the bit loop; on narrow rows a
    // memory accumulator per (region, bit) costs as much as the
    // popcounts.
    const auto plane_weight = [width](unsigned bit) {
        const std::int64_t weight = std::int64_t(1) << bit;
        return bit + 1 == width ? -weight : weight;
    };
    for (const RegionMask &region : regionMasks_) {
        const std::uint64_t *mask = maskWords_.data() + region.wordOffset;
        const std::int64_t twice_w = twice[region.code];
        region_bits += region.bits;
        std::size_t b = 0;
        // Four-column groups: each mask word is loaded once and ANDed
        // into four independent popcount chains, so the superscalar
        // core overlaps what one column serialises behind a single
        // accumulator.
        for (; b + 4 <= batch; b += 4) {
            std::int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            for (unsigned bit = 0; bit < width; ++bit) {
                const std::uint64_t *p0 = plane_ptr[b + 0][bit];
                const std::uint64_t *p1 = plane_ptr[b + 1][bit];
                const std::uint64_t *p2 = plane_ptr[b + 2][bit];
                const std::uint64_t *p3 = plane_ptr[b + 3][bit];
                std::int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
                for (std::size_t w = 0; w < words; ++w) {
                    const std::uint64_t m = mask[w];
                    c0 += std::popcount(p0[w] & m);
                    c1 += std::popcount(p1[w] & m);
                    c2 += std::popcount(p2[w] & m);
                    c3 += std::popcount(p3[w] & m);
                }
                const std::int64_t signed_weight = plane_weight(bit);
                s0 += signed_weight * c0;
                s1 += signed_weight * c1;
                s2 += signed_weight * c2;
                s3 += signed_weight * c3;
            }
            out[b + 0] += s0 * twice_w;
            out[b + 1] += s1 * twice_w;
            out[b + 2] += s2 * twice_w;
            out[b + 3] += s3 * twice_w;
        }
        for (; b < batch; ++b) {
            std::int64_t sum = 0;
            for (unsigned bit = 0; bit < width; ++bit) {
                const std::uint64_t *plane = plane_ptr[b][bit];
                std::int64_t count = 0;
                for (std::size_t w = 0; w < words; ++w)
                    count += std::popcount(plane[w] & mask[w]);
                sum += plane_weight(bit) * count;
            }
            out[b] += sum * twice_w;
        }
    }

    addActivity(width, batch, region_bits, activity);
}

std::int64_t
HardwiredNeuron::computeReference(
    const std::vector<std::int64_t> &activations) const
{
    const auto &tmpl = topology_.tmpl();
    hnlpu_assert(activations.size() == tmpl.inputCount,
                 "activation count mismatch");
    const auto &twice = fp4TwiceValueTable();
    std::int64_t total = 0;
    for (int code = 0; code < kFp4Codes; ++code) {
        const auto &region = topology_.region(
            static_cast<std::uint8_t>(code));
        for (std::uint32_t input : region)
            total += twice[code] * activations[input];
    }
    return total;
}

} // namespace hnlpu
