#include "arith/bitserial.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace hnlpu {

BitSerializer::BitSerializer(std::vector<std::int64_t> values,
                             unsigned width)
    : values_(std::move(values)), width_(width)
{
    hnlpu_assert(width_ >= 2 && width_ <= 63, "bad bit-serial width ",
                 width_);
    const std::int64_t lo = -(std::int64_t(1) << (width_ - 1));
    const std::int64_t hi = (std::int64_t(1) << (width_ - 1)) - 1;
    for (std::int64_t v : values_) {
        hnlpu_assert(v >= lo && v <= hi, "value ", v,
                     " does not fit in ", width_, " bits");
    }
}

std::vector<bool>
BitSerializer::plane(unsigned bit) const
{
    hnlpu_assert(bit < width_, "plane index out of range");
    std::vector<bool> bits(values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const std::uint64_t u = static_cast<std::uint64_t>(values_[i]);
        bits[i] = (u >> bit) & 1ULL;
    }
    return bits;
}

void
PackedPlanes::build(const std::vector<std::int64_t> &values,
                    unsigned width)
{
    hnlpu_assert(width >= 2 && width <= 63, "bad bit-serial width ",
                 width);
    const std::int64_t lo = -(std::int64_t(1) << (width - 1));
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
    width_ = width;
    lanes_ = values.size();
    wordsPerPlane_ = (lanes_ + 63) / 64;
    // assign() keeps the capacity, so rebuilding at a stable geometry
    // (every decode step of a given projection) is allocation free.
    words_.assign(std::size_t(width_) * wordsPerPlane_, 0);
    for (std::size_t i = 0; i < lanes_; ++i) {
        const std::int64_t v = values[i];
        hnlpu_assert(v >= lo && v <= hi, "value ", v,
                     " does not fit in ", width, " bits");
        const std::uint64_t u = static_cast<std::uint64_t>(v);
        const std::size_t word = i / 64;
        const std::uint64_t lane_bit = std::uint64_t(1) << (i % 64);
        for (unsigned bit = 0; bit < width_; ++bit) {
            if ((u >> bit) & 1ULL)
                words_[bit * wordsPerPlane_ + word] |= lane_bit;
        }
    }
}

const std::uint64_t *
PackedPlanes::plane(unsigned bit) const
{
    hnlpu_assert(bit < width_, "plane index out of range");
    return words_.data() + std::size_t(bit) * wordsPerPlane_;
}

void
SerialAccumulator::addPlane(unsigned bit, bool sign_plane,
                            std::int64_t count)
{
    const std::int64_t weight = std::int64_t(1) << bit;
    total_ += (sign_plane ? -weight : weight) * count;
}

std::size_t
bitSerialCycles(unsigned width, std::size_t tree_depth)
{
    return static_cast<std::size_t>(width) + tree_depth;
}

std::vector<int>
csdDigits(std::int64_t multiplier)
{
    std::vector<int> digits;
    std::int64_t value = multiplier;
    bool negative = value < 0;
    if (negative)
        value = -value;
    while (value != 0) {
        if (value & 1) {
            // Choose +1 or -1 so the remaining value is even-friendly:
            // CSD picks -1 when the low two bits are 11.
            int digit = ((value & 3) == 3) ? -1 : 1;
            digits.push_back(digit);
            value -= digit;
        } else {
            digits.push_back(0);
        }
        value >>= 1;
    }
    if (negative) {
        for (int &d : digits)
            d = -d;
    }
    return digits;
}

std::size_t
csdAdderCount(std::int64_t multiplier)
{
    std::size_t nonzero = 0;
    for (int d : csdDigits(multiplier)) {
        if (d != 0)
            ++nonzero;
    }
    return nonzero > 0 ? nonzero - 1 : 0;
}

} // namespace hnlpu
