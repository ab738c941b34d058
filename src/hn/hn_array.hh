/**
 * @file
 * HN Array: a matrix of Hardwired-Neurons implementing y = W x.
 *
 * Each output neuron corresponds to one row of the FP4 weight matrix; all
 * rows share the same prefabricated Sea-of-Neurons template and differ
 * only in their metal wire topology.  The array exposes:
 *
 *  - bit-exact integer GEMM on quantised activation columns (bit-serial
 *    path, one weight traversal for every column, and a reference GEMV,
 *    which must agree); a GEMV is a GEMM of one column;
 *  - a real-valued GEMM that quantises activations, runs the integer
 *    path and dequantises (this is what the transformer engine uses);
 *  - aggregate structural statistics for the physical model.
 */

#ifndef HNLPU_HN_HN_ARRAY_HH
#define HNLPU_HN_HN_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arith/fp4.hh"
#include "arith/quantize.hh"
#include "hn/hn_kernel.hh"
#include "hn/hn_neuron.hh"
#include "hn/wire_topology.hh"

namespace hnlpu {

class ThreadPool;

/** Structural summary of a programmed HN array. */
struct HnArrayStats
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t totalWires = 0;     //!< metal embedding wires
    std::size_t groundedPorts = 0;  //!< slack ports tied to ground
    std::size_t zeroWeights = 0;    //!< weights requiring no wire
    std::size_t deadRows = 0;       //!< defective, unrepaired neurons
};

/** A programmed matrix of Hardwired-Neurons. */
class HnArray
{
  public:
    /**
     * Program a weight matrix (row-major, rows x cols) onto a shared
     * template.  Fatal on capacity overflow: the caller controls slack
     * via the template and should size it for the weight distribution.
     *
     * @param dead_rows rows whose neuron is defective and was not
     *        remapped to a spare (src/fault); their output is stuck at
     *        0 and they consume no switching activity.  Must be sorted,
     *        unique and in range.
     */
    HnArray(const SeaOfNeuronsTemplate &tmpl,
            const std::vector<Fp4> &weights_row_major, std::size_t rows,
            std::size_t cols,
            const std::vector<std::uint32_t> &dead_rows = {});

    std::size_t rows() const { return neurons_.size(); }
    std::size_t cols() const { return cols_; }

    /** True when @p row is a dead (unrepaired) neuron. */
    bool rowDead(std::size_t row) const;

    /** Integer GEMV out_j = sum_i (2*W_ji) * x_i: one-column gemmSerial. */
    std::vector<std::int64_t> gemvSerial(
        const std::vector<std::int64_t> &activations, unsigned width,
        HnActivity *activity = nullptr, ThreadPool *pool = nullptr,
        HnKernel kernel = HnKernel::Packed,
        HnScratchArena *arena = nullptr) const;

    /**
     * Bit-serial integer GEMM: one weight-side traversal evaluated
     * against @p activations.size() activation columns.  Returns a
     * flat rows x batch buffer, result of column b for row r at
     * [r * batch + b].  Column b is bit-identical to running it alone
     * (a batch of one), and @p activity accumulates the exact sum of
     * the per-column counters.  With @p pool, output rows are
     * partitioned into disjoint chunks (one neuron row per output
     * element, so bit-exact vs serial); per-worker activity counters
     * are summed into @p activity.
     *
     * @param kernel HnKernel::Packed (default) serialises each column
     *        at most once into per-column PackedPlanes (a recycled
     *        scratch whose cached planes already match a column skips
     *        even that) and runs each neuron row's region-mask
     *        traversal over all columns at once (chunks of
     *        kHnBatchChunk, HardwiredNeuron::computePackedBatch),
     *        amortising mask loads and region-walk overhead across the
     *        batch; HnKernel::Simd runs the same traversal with the
     *        vectorised multi-column body
     *        (HardwiredNeuron::computeSimdBatch); HnKernel::Scalar is
     *        the original per-row, per-column emulation.  Outputs and
     *        activity counters are bit-identical across all three.
     * @param arena optional scratch recycler for the plane buffers;
     *        null allocates a transient scratch per call.
     */
    std::vector<std::int64_t> gemmSerial(
        const std::vector<std::vector<std::int64_t>> &activations,
        unsigned width, HnActivity *activity = nullptr,
        ThreadPool *pool = nullptr, HnKernel kernel = HnKernel::Packed,
        HnScratchArena *arena = nullptr) const;

    /** Reference integer GEMV (oracle). */
    std::vector<std::int64_t> gemvReference(
        const std::vector<std::int64_t> &activations) const;

    /** Real-valued GEMV: gemmReal of one column. */
    std::vector<double> gemvReal(const std::vector<double> &activations,
                                 unsigned width = 8,
                                 HnActivity *activity = nullptr,
                                 ThreadPool *pool = nullptr,
                                 HnKernel kernel = HnKernel::Packed,
                                 HnScratchArena *arena = nullptr) const;

    /**
     * Real-valued GEMM: every activation column is quantised with its
     * own symmetric @p width-bit scale, the integer batch runs through
     * gemmSerial's single weight traversal, and each column
     * dequantises with its own scale (including the 1/2 from the
     * twice-value weight convention).  @p kernel / @p arena as in
     * gemmSerial.
     * @return one output vector per activation column
     */
    std::vector<std::vector<double>> gemmReal(
        const std::vector<std::vector<double>> &activations,
        unsigned width = 8, HnActivity *activity = nullptr,
        ThreadPool *pool = nullptr, HnKernel kernel = HnKernel::Packed,
        HnScratchArena *arena = nullptr) const;

    const HardwiredNeuron &neuron(std::size_t row) const;

    HnArrayStats stats() const;

  private:
    std::size_t cols_ = 0;
    std::size_t zeroWeights_ = 0;
    std::size_t deadRowCount_ = 0;
    std::vector<HardwiredNeuron> neurons_;
    /** Per-row dead mask; empty when no row is dead. */
    std::vector<std::uint8_t> dead_;
};

/**
 * Generate a synthetic FP4 weight matrix whose value histogram follows a
 * roughly Gaussian logit distribution (stand-in for trained LLM weights;
 * see DESIGN.md substitution table).
 */
std::vector<Fp4> syntheticFp4Weights(std::size_t count,
                                     std::uint64_t seed,
                                     double stddev = 1.5);

} // namespace hnlpu

#endif // HNLPU_HN_HN_ARRAY_HH
