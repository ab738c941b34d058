/**
 * @file
 * Bit-serial arithmetic helpers.
 *
 * The Hardwired-Neuron streams activations LSB-first, one bit per clock
 * (paper Fig. 3/4).  Every cycle, each weight-value region POPCNTs the
 * incoming bit plane and a serial accumulator folds the count in with the
 * appropriate power-of-two weight.  Two's-complement inputs are handled by
 * giving the MSB plane a negative weight.
 */

#ifndef HNLPU_ARITH_BITSERIAL_HH
#define HNLPU_ARITH_BITSERIAL_HH

#include <cstdint>
#include <vector>

namespace hnlpu {

/**
 * Decompose signed integers into bit planes for serial streaming.
 * All values must fit in @p width bits two's complement.
 */
class BitSerializer
{
  public:
    /**
     * @param values the signed integers to serialise
     * @param width word width in bits (2..63)
     */
    BitSerializer(std::vector<std::int64_t> values, unsigned width);

    unsigned width() const { return width_; }
    std::size_t laneCount() const { return values_.size(); }

    /** Bit plane @p bit (0 == LSB) across all lanes. */
    std::vector<bool> plane(unsigned bit) const;

    /** True if @p bit is the (sign-carrying) MSB plane. */
    bool isSignPlane(unsigned bit) const { return bit == width_ - 1; }

  private:
    std::vector<std::int64_t> values_;
    unsigned width_;
};

/**
 * Bit planes packed 64 lanes per 64-bit word, LSB-plane first.
 *
 * This is the word-parallel twin of BitSerializer: plane(bit) returns
 * wordsPerPlane() uint64_t words where word w bit l carries lane
 * 64*w + l of bit plane @p bit.  Lanes beyond laneCount() in the tail
 * word are zero.  A PackedPlanes is built once per GEMV and then shared
 * read-only across every neuron row (and every worker thread), which is
 * what removes the per-row re-serialisation of the scalar path.
 *
 * build() reuses the word buffer's capacity, so a long-lived instance
 * (an engine's HnScratch, hn/hn_kernel.hh) allocates only on its first
 * use at a given geometry.
 */
class PackedPlanes
{
  public:
    PackedPlanes() = default;

    /**
     * (Re)build the planes from @p values.  Same contract as
     * BitSerializer: all values must fit in @p width bits two's
     * complement, width in 2..63.
     */
    void build(const std::vector<std::int64_t> &values, unsigned width);

    unsigned width() const { return width_; }
    std::size_t laneCount() const { return lanes_; }
    /** ceil(laneCount / 64): words per bit plane. */
    std::size_t wordsPerPlane() const { return wordsPerPlane_; }

    /** Pointer to the wordsPerPlane() words of plane @p bit (0 = LSB). */
    const std::uint64_t *plane(unsigned bit) const;

    /** True if @p bit is the (sign-carrying) MSB plane. */
    bool isSignPlane(unsigned bit) const { return bit == width_ - 1; }

  private:
    std::vector<std::uint64_t> words_;
    unsigned width_ = 0;
    std::size_t lanes_ = 0;
    std::size_t wordsPerPlane_ = 0;
};

/**
 * Serial accumulator: folds per-plane popcounts into a running integer
 * using weight 2^bit (negative for the sign plane).  Bit-exact: after all
 * planes of all lanes are added, total() equals the plain integer sum of
 * the serialised values.
 */
class SerialAccumulator
{
  public:
    void reset() { total_ = 0; }

    /** Add a plane's popcount with its positional weight. */
    void addPlane(unsigned bit, bool sign_plane, std::int64_t count);

    std::int64_t total() const { return total_; }

  private:
    std::int64_t total_ = 0;
};

/**
 * Clock cycles for a bit-serial reduction: one cycle per input bit plane
 * plus the pipeline drain of the compressor tree.
 */
std::size_t bitSerialCycles(unsigned width, std::size_t tree_depth);

/**
 * Number of add/subtract operations in a canonical-signed-digit (CSD)
 * shift-add multiplier for the constant @p multiplier.  0 and powers of
 * two cost zero adders; every further nonzero CSD digit costs one.
 */
std::size_t csdAdderCount(std::int64_t multiplier);

/** The CSD digit string (entries in {-1,0,1}, LSB first). */
std::vector<int> csdDigits(std::int64_t multiplier);

} // namespace hnlpu

#endif // HNLPU_ARITH_BITSERIAL_HH
