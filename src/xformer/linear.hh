/**
 * @file
 * Weight-bearing projection with two interchangeable execution paths.
 *
 * Every projection in the model stores its weights as FP4 codes (the
 * hardwired representation).  It can execute either:
 *
 *  - Reference: dense float GEMV over the dequantised FP4 values, or
 *  - Hardwired: the bit-serial Metal-Embedding HN array.
 *
 * Both paths share the identical FP4 weights, so the only divergence is
 * the hardwired path's activation quantisation -- this is what the
 * end-to-end equivalence tests pin down.
 */

#ifndef HNLPU_XFORMER_LINEAR_HH
#define HNLPU_XFORMER_LINEAR_HH

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "arith/fp4.hh"
#include "hn/hn_array.hh"
#include "xformer/tensor.hh"

namespace hnlpu {

namespace obs {
struct Sink;
}

class ThreadPool;
struct LoraSet;

/** Which GEMV implementation a Linear uses. */
enum class ExecPath { Reference, Hardwired };

/**
 * Bundled execution knobs, threaded by const-ref through every
 * weight-bearing call (Linear / MoeLayer / Engine / DistributedEngine).
 * This replaces the old seven-parameter call lists: a caller builds one
 * ExecContext up front and every layer below reads the same struct, so
 * adding a knob (as `sink` was, and `lora` after it) no longer touches
 * every signature in the stack.
 *
 * All pointers are optional; null means "feature off".  `sink` carries
 * the observability wiring (obs::Sink: metrics registry + tracer) --
 * disabled mode is a null sink and costs one pointer test per span
 * site, which is what keeps tokens bit-identical and overhead in the
 * noise with observability off.  `lora` is the LoRA side-channel
 * adapter the attention projections add their low-rank delta from
 * (xformer/lora.hh); it is the *default* adapter -- batched entry
 * points accept a per-sequence override so one engine can serve many
 * tenants in a single batch.  `scratch` is the owning engine's
 * HnScratch, which every GEMM below leases in turn, so a context that
 * sets it serves one caller thread at a time; null gives each call a
 * private one.
 */
struct ExecContext
{
    ExecPath path = ExecPath::Reference;
    unsigned activationBits = 8;
    HnKernel kernel = HnKernel::Packed;
    HnActivity *activity = nullptr;
    ThreadPool *pool = nullptr;
    HnScratch *scratch = nullptr;
    const obs::Sink *sink = nullptr;
    /** Default LoRA adapter set; null runs the base model. */
    const LoraSet *lora = nullptr;
};

/**
 * Input columns of a projection, prepared once for any number of
 * Linear::evaluateRows calls on projections of the same input width
 * (Linear::forwardFused runs wq/wk/wv, and the MoE expert stage an
 * expert's up and gate rows, off one preparation).  On the hardwired
 * path preparing quantises and serialises the columns
 * (HnArray::prepareColumns); on the reference path it records the
 * column pointers and nothing more.  A non-owning view, valid while
 * the scratch and column storage it was prepared from are.
 */
struct LinearColumns
{
    ExecPath path = ExecPath::Reference;
    std::size_t count = 0;
    std::size_t dim = 0; //!< values per column
    /** Reference path: column b's values. */
    const double *const *reals = nullptr;
    /** Hardwired path: the quantised, serialised columns. */
    HnColumns hn;

    /** Columns [first, first + n) of this view. */
    LinearColumns slice(std::size_t first, std::size_t n) const;
};

/** An out x in projection with FP4 weights. */
class Linear
{
  public:
    /**
     * Construct from FP4 codes (row-major, out x in).
     *
     * @param dead_rows output rows whose Hardwired-Neuron is defective
     *        and unrepaired (src/fault); they read as exactly 0.0 on
     *        BOTH execution paths, mirroring a broken neuron whose
     *        output net floats to ground.  Sorted, unique, in range.
     */
    Linear(std::vector<Fp4> weights, std::size_t out_dim,
           std::size_t in_dim,
           std::vector<std::uint32_t> dead_rows = {});

    /** Quantise a real matrix (row-major) to FP4 and construct. */
    static Linear fromReal(const Mat &weights);

    /** Random synthetic projection with Xavier-ish scaling. */
    static Linear random(std::size_t out_dim, std::size_t in_dim,
                         std::uint64_t seed);

    /** y = W x: forwardBatch of one column. */
    Vec forward(const Vec &x, const ExecContext &ctx) const;

    /** Batched y_b = W x_b: forwardFused of this one projection. */
    std::vector<Vec> forwardBatch(const std::vector<Vec> &xs,
                                  const ExecContext &ctx) const;

    /**
     * ys[p][b] = W_p x_b for every projection p of @p projections (all
     * of one input width) on the path selected by @p ctx:
     * prepareColumns once, then one evaluateRows pass over the
     * projections' concatenated rows in pool row chunks, each chunk
     * split at the projection boundaries.  One preparation serves
     * every projection (wq/wk/wv read the same x), and one weight-side
     * traversal serves every input column (the hardwired path runs
     * HnArray::evaluateRowsReal, the body of HnArray::gemmReal; on the
     * reference path each weight row is loaded once and multiplied
     * into per-column accumulators).  The column slots and staged
     * outputs are leased from ctx.scratch.
     *
     * Rows are independent, so ys[p] is bit-identical to
     * W_p.forwardBatch(xs, ctx) and column b to running it alone (a
     * batch of one) on both paths -- the serving layer relies on this
     * to keep batched decode bit-exact with sequential decode
     * (tests/test_serving.cc).  With ctx.pool set the parallel result
     * is bit-exactly the serial one; ctx.kernel Packed (default), Simd
     * and Scalar are likewise bit-identical in both outputs and
     * activity counters.  ctx.activity accumulates the exact sum of
     * per-column counters.
     *
     * @param ys one output per projection, each overwritten with
     *        xs.size() vectors
     */
    static void forwardFused(std::span<const Linear *const> projections,
                             const std::vector<Vec> &xs,
                             const ExecContext &ctx,
                             std::span<std::vector<Vec>> ys);

    /**
     * Prepare the columns @p scratch.columns[0, count) (each @p dim
     * values, caller-filled after HnScratch::ensureSlots) on the path,
     * activation width, kernel and pool of @p ctx.  The columns must
     * stay valid while the view is used.
     */
    static LinearColumns prepareColumns(HnScratch &scratch,
                                        std::size_t count,
                                        std::size_t dim,
                                        const ExecContext &ctx);

    /**
     * The per-row body of forwardFused: output rows [begin, end) for
     * every column of @p cols, row r of column b written to
     * out[b * stride + r].  Dead rows read 0.0 on both paths.  Rows
     * are independent and each row's arithmetic does not depend on the
     * range it rides in, so any row partition -- forwardFused's pool
     * chunks, the MoE stage's (expert, row-tile) tasks -- is
     * bit-identical to one serial pass.  @p activity accumulates the
     * hardwired path's counters.
     */
    void evaluateRows(const LinearColumns &cols, std::size_t begin,
                      std::size_t end, double *out, std::size_t stride,
                      HnActivity *activity) const;

    std::size_t outDim() const { return outDim_; }
    std::size_t inDim() const { return inDim_; }

    /** The dequantised weight value at (row, col). */
    double weightValue(std::size_t row, std::size_t col) const;

    /** Total FP4 parameters. */
    std::size_t paramCount() const { return weights_.size(); }

    /** Raw FP4 codes (row-major). */
    const std::vector<Fp4> &codes() const { return weights_; }

    /** Dead (defective, unrepaired) output rows; sorted. */
    const std::vector<std::uint32_t> &deadRows() const
    {
        return deadRows_;
    }

    /**
     * Extract the sub-projection [row0, row0+rows) x [col0, col0+cols)
     * as its own Linear (used by the distributed dataflow to build
     * per-chip weight shards; paper Appendix A).
     */
    Linear slice(std::size_t row0, std::size_t rows, std::size_t col0,
                 std::size_t cols) const;

  private:
    const HnArray &hardwired() const;

    /**
     * Lazily programmed HN array plus the once-flag guarding its
     * construction.  Held behind one shared_ptr so copies of a Linear
     * share both the flag and the array (the flag alone would not
     * survive copying: std::once_flag is neither copyable nor movable),
     * and so concurrent first use from several threads programs the
     * array exactly once (std::call_once publishes the build).
     */
    struct HardwiredState
    {
        std::once_flag once;
        std::unique_ptr<HnArray> array;
    };

    std::vector<Fp4> weights_;
    std::size_t outDim_;
    std::size_t inDim_;
    std::vector<std::uint32_t> deadRows_;
    std::shared_ptr<HardwiredState> hardwiredState_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_LINEAR_HH
