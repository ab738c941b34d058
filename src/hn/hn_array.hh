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
 *  - an int8 image of every row's 2*w, built once at programming time
 *    from the wires, which the Simd kernel's dot product reads;
 *  - a real-valued GEMM that quantises activations, runs the integer
 *    path and dequantises;
 *  - the two halves every GEMM is made of, for callers that schedule
 *    rows themselves (Linear, the MoE expert stage): prepareColumns
 *    quantises and serialises (or narrows) activation columns once, and
 *    evaluateRows runs rows [begin, end) against them;
 *  - aggregate structural statistics for the physical model.
 */

#ifndef HNLPU_HN_HN_ARRAY_HH
#define HNLPU_HN_HN_ARRAY_HH

#include <cstdint>
#include <functional>
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

/**
 * Activation columns prepared for HnArray::evaluateRows: each column
 * quantised to @p width bits with its own symmetric scale (the Scalar
 * kernel reads the integers) and, under Packed, serialised into bit
 * planes, or under Simd, narrowed to int16.  A non-owning view
 * of HnScratch slots, so every row of every array that reads the same
 * columns shares one preparation, and a column range is another view.
 */
struct HnColumns
{
    const QuantizedVector *values = nullptr;
    /** Column b's planes at planes[b]; set under HnKernel::Packed only. */
    const PackedPlanes *planes = nullptr;
    /** Simd: column b's values at narrowed + b * dim. */
    const std::int16_t *narrowed = nullptr;
    std::size_t count = 0;
    std::size_t dim = 0; //!< values per column
    unsigned width = 8;
    /**
     * The kernel the rows run: the requested one, except that Simd on
     * columns wider than kHnDotMaxWidth bits runs Packed.
     */
    HnKernel kernel = HnKernel::Packed;

    /** Columns [first, first + n) of this view. */
    HnColumns slice(std::size_t first, std::size_t n) const;
};

/**
 * Run body(begin, end, activity) over [0, rows) on @p pool (serially
 * when null) in contiguous chunks whose interior boundaries fall on
 * 8-row (one cache line of outputs) multiples.  Each chunk gets its
 * own cache-line-padded HnActivity shard, folded into @p activity
 * after the join -- exact integer sums, so the totals equal the serial
 * ones; the body sees null when @p activity is null.
 */
void parallelRows(
    ThreadPool *pool, std::size_t rows, HnActivity *activity,
    const std::function<void(std::size_t, std::size_t, HnActivity *)>
        &body,
    std::size_t grain = 1);

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
        HnKernel kernel = HnKernel::Packed) const;

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
     *        once into per-column PackedPlanes and runs each neuron
     *        row's region-mask traversal over all columns at once
     *        (chunks of kHnBatchChunk, HardwiredNeuron::computePackedBatch),
     *        amortising mask loads and region-walk overhead across the
     *        batch; HnKernel::Simd narrows each column to int16 and
     *        takes each row's exact integer dot product with the
     *        array's 2*w image (hnDotBatch, hn/hn_simd.hh), running
     *        Packed on columns wider than kHnDotMaxWidth bits;
     *        HnKernel::Scalar is the original per-row, per-column
     *        emulation.  Outputs and activity counters are
     *        bit-identical across all three.  The column buffers are
     *        allocated per call; engines run their projections through
     *        Linear, which reuses the engine's scratch.
     */
    std::vector<std::int64_t> gemmSerial(
        const std::vector<std::vector<std::int64_t>> &activations,
        unsigned width, HnActivity *activity = nullptr,
        ThreadPool *pool = nullptr,
        HnKernel kernel = HnKernel::Packed) const;

    /**
     * Quantise the real columns @p scratch.columns[0, count) (each
     * @p dim values, caller-filled after HnScratch::ensureSlots) into
     * the scratch's slots, each with its own symmetric @p width-bit
     * scale; under Packed serialise them into the slots' planes, under
     * Simd narrow them to int16 in the scratch's grow-only buffer.
     * Columns are independent, so with @p pool each worker prepares
     * its own slots.
     */
    static HnColumns prepareColumns(HnScratch &scratch, std::size_t count,
                                    std::size_t dim, unsigned width,
                                    HnKernel kernel, ThreadPool *pool);

    /**
     * The per-row body of every GEMM: rows [begin, end) against every
     * column of @p cols, row r's result for column b written to
     * out[(r - begin) * cols.count + b].  A dead row writes 0 and
     * counts no activity; live rows run the @p cols kernel (Packed
     * over kHnBatchChunk-column chunks).  Rows are independent, so any
     * row partition of a GEMM is bit-identical to the serial loop.
     */
    void evaluateRows(const HnColumns &cols, std::size_t begin,
                      std::size_t end, std::int64_t *out,
                      HnActivity *activity) const;

    /**
     * The per-row body of every real-valued GEMM (gemmReal, Linear,
     * the MoE expert stage): evaluateRows, then each column
     * dequantised with its own scale (including the 1/2 from the
     * twice-value weight convention), row r of column b written to
     * out[b * stride + r].  Rows go in blocks that stay cache-hot
     * across their kHnBatchChunk-column chunks; each row's result does
     * not depend on the block it rides in.
     */
    void evaluateRowsReal(const HnColumns &cols, std::size_t begin,
                          std::size_t end, double *out,
                          std::size_t stride, HnActivity *activity) const;

    /** Reference integer GEMV (oracle). */
    std::vector<std::int64_t> gemvReference(
        const std::vector<std::int64_t> &activations) const;

    /** Real-valued GEMV: gemmReal of one column. */
    std::vector<double> gemvReal(const std::vector<double> &activations,
                                 unsigned width = 8,
                                 HnActivity *activity = nullptr,
                                 ThreadPool *pool = nullptr,
                                 HnKernel kernel = HnKernel::Packed) const;

    /**
     * Real-valued GEMM: prepareColumns, then evaluateRowsReal over
     * @p pool row chunks -- one weight traversal for every column,
     * each column quantised and dequantised with its own symmetric
     * @p width-bit scale.  @p kernel as in gemmSerial.
     * @return one output vector per activation column
     */
    std::vector<std::vector<double>> gemmReal(
        const std::vector<std::vector<double>> &activations,
        unsigned width = 8, HnActivity *activity = nullptr,
        ThreadPool *pool = nullptr,
        HnKernel kernel = HnKernel::Packed) const;

    const HardwiredNeuron &neuron(std::size_t row) const;

    HnArrayStats stats() const;

  private:
    /**
     * Make the quantised column in @p scratch slot @p slot readable by
     * @p cols.kernel: its planes (Packed) or its narrowed copy
     * (Simd); a no-op under Scalar.
     */
    static void prepareSlot(HnScratch &scratch, std::size_t slot,
                            const HnColumns &cols);

    /**
     * The view of @p scratch slots [0, count) of @p dim values each,
     * with the Simd buffer sized for them.
     */
    static HnColumns columnsView(HnScratch &scratch, std::size_t count,
                                 std::size_t dim, unsigned width,
                                 HnKernel kernel);

    /**
     * Every row against @p cols on @p pool: the flat rows x cols.count
     * result of gemmSerial.
     */
    std::vector<std::int64_t> evaluateAll(const HnColumns &cols,
                                          ThreadPool *pool,
                                          HnActivity *activity) const;

    std::size_t cols_ = 0;
    std::size_t zeroWeights_ = 0;
    std::size_t deadRowCount_ = 0;
    std::vector<HardwiredNeuron> neurons_;
    /**
     * Row-major rows x cols 2*w image of the wiring, in [-12, 12]: the
     * weights of the Simd kernel's dot product.
     */
    std::vector<std::int8_t> image_;
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
