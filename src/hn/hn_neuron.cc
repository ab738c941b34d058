#include "hn/hn_neuron.hh"

#include <array>
#include <bit>

#include "arith/bitserial.hh"
#include "arith/csa.hh"
#include "common/logging.hh"

namespace hnlpu {

namespace {

/** Largest |2*w| of an FP4 (e2m1) weight: 2 * 6.0. */
constexpr int kMaxTwice = 12;

bool
hasCode(std::uint16_t codes, int code)
{
    return (codes >> code) & 1;
}

} // namespace

std::int64_t
HardwiredNeuron::computeSerial(
    const std::vector<std::int64_t> &activations, unsigned width,
    HnActivity *activity) const
{
    hnlpu_assert(activations.size() == inputs_,
                 "activation count mismatch");

    BitSerializer serializer(activations, width);
    const auto &twice = fp4TwiceValueTable();

    // One serial accumulator per FP4 value region.
    std::vector<SerialAccumulator> accumulators(kFp4Codes);

    for (unsigned bit = 0; bit < width; ++bit) {
        const bool sign_plane = serializer.isSignPlane(bit);
        const std::vector<bool> plane = serializer.plane(bit);
        // Each region's popcount of this plane, bucketed by 2*w: every
        // non-zero 2*w names exactly one code, and unwired inputs
        // (2*w = 0) land in no region.
        std::array<std::int64_t, 2 * kMaxTwice + 1> counts{};
        for (std::size_t i = 0; i < inputs_; ++i)
            counts[image_[i] + kMaxTwice] += plane[i] ? 1 : 0;
        for (int code = 0; code < kFp4Codes; ++code) {
            if (hasCode(codes_, code)) {
                accumulators[code].addPlane(
                    bit, sign_plane, counts[twice[code] + kMaxTwice]);
            }
        }
    }

    // Constant multiply per region (2*w, exact integer) then reduce the
    // sixteen products with a CSA tree.
    std::vector<std::int64_t> products;
    products.reserve(kFp4Codes);
    for (int code = 0; code < kFp4Codes; ++code) {
        if (hasCode(codes_, code))
            products.push_back(accumulators[code].total() * twice[code]);
    }
    addActivity(width, 1, activity);
    return csaReduce(products);
}

void
HardwiredNeuron::addActivity(unsigned width, std::size_t columns,
                             HnActivity *activity) const
{
    if (!activity)
        return;
    // Logical wires examined (one per region input per plane), not host
    // words: the counters model the hardware popcount fabric, not the
    // emulation, so the shared mask loads and the Simd kernel's dot
    // product never change them.  A batch is exactly `columns`
    // single-column evaluations' worth of logical work.
    const std::size_t regions = std::popcount(codes_);
    const CsaTreeShape tree = csaTreeShape(regions);
    activity->cycles += columns * bitSerialCycles(width, tree.depth);
    activity->popcountBitOps += columns * width * wires_;
    activity->multiplyOps += columns * regions;
    activity->treeAddOps += columns * (tree.compressorCount + 1);
}

// Pinned to a cache line: where the linker happens to place this
// function moved perfbench chat_fleet's Packed decode by up to 30%
// (start at 0 mod 64 fast, 16 mod 64 slowest on a Xeon host) whenever
// code elsewhere in the library changed size.
__attribute__((aligned(64))) void
HardwiredNeuron::computePackedBatch(const PackedPlanes *planes,
                                    std::size_t batch, std::int64_t *out,
                                    HnActivity *activity) const
{
    hnlpu_assert(batch >= 1 && batch <= kHnBatchChunk,
                 "batch ", batch, " outside [1, ", kHnBatchChunk, "]");
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(planes[b].laneCount() == inputs_,
                     "activation count mismatch in batch column ", b);
        hnlpu_assert(planes[b].width() == planes[0].width(),
                     "batch columns must share one width");
    }
    const unsigned width = planes[0].width();

    // Per-(column, bit) plane base pointers, hoisted once per neuron
    // (width <= 63 by BitSerializer contract).
    const std::uint64_t *plane_ptr[kHnBatchChunk][63];
    for (std::size_t b = 0; b < batch; ++b) {
        for (unsigned bit = 0; bit < width; ++bit)
            plane_ptr[b][bit] = planes[b].plane(bit);
    }

    const auto &twice = fp4TwiceValueTable();
    const std::size_t words = planes[0].wordsPerPlane();
    for (std::size_t b = 0; b < batch; ++b)
        out[b] = 0;

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
    const std::uint64_t *mask = masks_;
    for (int code = 0; code < kFp4Codes; ++code) {
        if (!hasCode(codes_, code))
            continue;
        const std::int64_t twice_w = twice[code];
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
        mask += words;
    }

    addActivity(width, batch, activity);
}

std::int64_t
HardwiredNeuron::computeReference(
    const std::vector<std::int64_t> &activations) const
{
    hnlpu_assert(activations.size() == inputs_,
                 "activation count mismatch");
    std::int64_t total = 0;
    for (std::size_t i = 0; i < inputs_; ++i)
        total += std::int64_t(image_[i]) * activations[i];
    return total;
}

} // namespace hnlpu
