/**
 * @file
 * Hardwired-Neuron (Metal-Embedding) functional model.
 *
 * The HN is an accumulate-multiply-accumulate unit (paper Fig. 4 (2)):
 *
 *  1. inputs arrive as 1-bit serialised planes (LSB first);
 *  2. each FP4-value region POPCNTs the bits of the inputs wired to it;
 *  3. a serial accumulator per region folds the per-plane counts into the
 *     integer sum of that region's inputs;
 *  4. sixteen constant multipliers scale each region sum by its weight
 *     (as the exact integer 2*w) and a 16-way adder tree produces the
 *     dot product.
 *
 * The model is bit-exact: for integer activations x and FP4 weights w,
 * computeSerial() returns sum_i (2*w_i) * x_i, so (result * scale / 2)
 * reproduces the real dot product up to activation quantisation only.
 * Because that integer is all a row produces, HnArray's Simd kernel
 * computes it as a plain dot product (hn/hn_simd.hh) and takes its
 * HnActivity from addActivity, which depends only on the wiring.
 *
 * A HardwiredNeuron is a view of one row of the wiring an HnArray owns
 * (hn_array.hh); a standalone neuron is the row of a one-row array.
 */

#ifndef HNLPU_HN_HN_NEURON_HH
#define HNLPU_HN_HN_NEURON_HH

#include <cstdint>
#include <vector>

#include "arith/bitserial.hh"
#include "arith/fp4.hh"

namespace hnlpu {

/**
 * Maximum batch width one computePackedBatch() call accepts.  The
 * kernel keeps per-column region accumulators and a plane-pointer row
 * per column on the stack; callers with wider batches chunk their
 * columns (HnArray::evaluateRows does).
 */
inline constexpr std::size_t kHnBatchChunk = 8;

/** Per-evaluation activity counters used by the energy model. */
struct HnActivity
{
    std::size_t cycles = 0;         //!< bit-serial cycles consumed
    std::size_t popcountBitOps = 0; //!< bits examined across regions
    std::size_t multiplyOps = 0;    //!< constant multiplies fired
    std::size_t treeAddOps = 0;     //!< final adder-tree additions

    /**
     * Fold another counter set into this one.  All fields are exact
     * integer sums, so merging per-worker counters in any order yields
     * the same totals as a serial accumulation.
     */
    void add(const HnActivity &other)
    {
        cycles += other.cycles;
        popcountBitOps += other.popcountBitOps;
        multiplyOps += other.multiplyOps;
        treeAddOps += other.treeAddOps;
    }
};

/**
 * One Hardwired-Neuron: a trivially copyable view of one HnArray row,
 * which owns no memory and must not outlive its array.
 *
 * image[i] is the 2*w of the region input i is wired into, 0 when it
 * is unwired; each non-zero 2*w names exactly one FP4 code.  The
 * Packed kernel reads the same wiring as one ceil(inputs/64)-word mask
 * stripe per wired code, in ascending code order -- the order
 * computeSerial() visits regions, so the CSA operand order is the
 * same.
 */
class HardwiredNeuron
{
  public:
    /**
     * View @p inputs 2*w bytes at @p image with @p wires wires, the set
     * @p codes of wired FP4 codes (bit c for code c) and their stripes
     * at @p masks.
     */
    HardwiredNeuron(const std::int8_t *image, std::size_t inputs,
                    std::uint32_t wires, std::uint16_t codes,
                    const std::uint64_t *masks)
        : image_(image), masks_(masks), inputs_(inputs), wires_(wires),
          codes_(codes)
    {
    }

    /**
     * Evaluate the neuron bit-serially (Scalar kernel: per-call
     * re-serialisation, each plane's bits bucketed by the region
     * image[i] names).
     * @param activations integer activations (one per template input)
     * @param width activation bit width (serial cycle count driver)
     * @param activity optional activity counter accumulation
     * @return sum_i (2 * w_i) * x_i as an exact integer
     */
    std::int64_t computeSerial(
        const std::vector<std::int64_t> &activations, unsigned width,
        HnActivity *activity = nullptr) const;

    /**
     * Evaluate the neuron word-parallel (Packed kernel) against
     * @p batch activation sets in ONE region-mask traversal: each
     * (bit plane, region) popcount runs 64 wires per instruction as
     * popcount(plane_word & mask_word), and each region's mask words
     * are loaded once and applied to every column's planes, so the
     * weight-side work (region walk, mask loads, per-plane sign/weight
     * setup) is amortised across the batch the way the hardwired
     * fabric amortises its single weight traversal across in-flight
     * sequences.  A solo evaluation is a batch of one.
     *
     * Column b's result is bit-identical to computeSerial on the
     * serialisation of the same activations, and the HnActivity
     * counters accumulate the exact sum of the per-column counters
     * (popcountBitOps counts logical region bits, not host words).
     * @p planes are shared read-only: this method never mutates them,
     * so many rows/threads may evaluate against one set.
     *
     * All planes must share one width and this neuron's geometry;
     * batch must be in [1, kHnBatchChunk].
     * @param planes the batch columns' planes, contiguous
     * @param out receives batch results, out[b] for planes[b]
     */
    void computePackedBatch(const PackedPlanes *planes,
                            std::size_t batch, std::int64_t *out,
                            HnActivity *activity = nullptr) const;

    /** Same result via direct integer arithmetic (oracle). */
    std::int64_t computeReference(
        const std::vector<std::int64_t> &activations) const;

    /**
     * Add @p columns single-column evaluations' worth of logical
     * activity at @p width to @p activity (no-op when null): what
     * computeSerial counts, which depends on the wiring and not on the
     * data.
     */
    void addActivity(unsigned width, std::size_t columns,
                     HnActivity *activity) const;

  private:
    const std::int8_t *image_;
    const std::uint64_t *masks_;
    std::size_t inputs_;
    std::uint32_t wires_;
    std::uint16_t codes_;
};

} // namespace hnlpu

#endif // HNLPU_HN_HN_NEURON_HH
