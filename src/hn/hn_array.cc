#include "hn/hn_array.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "hn/hn_simd.hh"

namespace hnlpu {

namespace {

/**
 * One HnActivity per worker chunk, padded to a cache line so adjacent
 * workers' counter increments never share (and therefore never bounce)
 * a line.  The caller folds the shards after the join; the counters
 * are exact integer sums, so shard-then-merge is bit-identical to the
 * serial accumulation no matter the chunk count.
 */
struct alignas(64) ActivityShard
{
    HnActivity value;
};

/**
 * Chunk boundary alignment for the row loops: 8 int64 outputs = one
 * 64-byte cache line, so two workers never write the line that would
 * otherwise straddle their chunk boundary.
 */
constexpr std::size_t kRowAlign = 8;

/**
 * Copy the @p width-bit (at most kHnDotMaxWidth) quantised column
 * @p values into @p out.
 */
void
narrowColumn(const std::vector<std::int64_t> &values, unsigned width,
             std::int16_t *out)
{
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::int64_t v = values[i];
        hnlpu_assert(v >= -hi - 1 && v <= hi, "value ", v,
                     " does not fit in ", width, " bits");
        out[i] = static_cast<std::int16_t>(v);
    }
}

} // namespace

HnColumns
HnColumns::slice(std::size_t first, std::size_t n) const
{
    hnlpu_assert(first + n <= count, "column slice [", first, ", ",
                 first + n, ") outside ", count);
    HnColumns view = *this;
    view.values += first;
    if (planes)
        view.planes += first;
    if (narrowed)
        view.narrowed += first * dim;
    view.count = n;
    return view;
}

void
parallelRows(
    ThreadPool *pool, std::size_t rows, HnActivity *activity,
    const std::function<void(std::size_t, std::size_t, HnActivity *)>
        &body,
    std::size_t grain)
{
    std::vector<ActivityShard> shards;
    if (activity)
        shards.resize(pool ? pool->threadCount() : 1);
    parallelForChunked(
        pool, rows,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
            body(begin, end, activity ? &shards[chunk].value : nullptr);
        },
        grain, kRowAlign);
    if (activity) {
        for (const ActivityShard &shard : shards)
            activity->add(shard.value);
    }
}

HnArray::HnArray(const SeaOfNeuronsTemplate &tmpl,
                 const std::vector<Fp4> &weights_row_major,
                 std::size_t rows, std::size_t cols,
                 const std::vector<std::uint32_t> &dead_rows)
    : cols_(cols)
{
    hnlpu_assert(weights_row_major.size() == rows * cols,
                 "weight matrix size mismatch: ", weights_row_major.size(),
                 " != ", rows, "x", cols);
    hnlpu_assert(tmpl.inputCount == cols,
                 "template fan-in ", tmpl.inputCount,
                 " != matrix cols ", cols);
    if (!dead_rows.empty()) {
        dead_.assign(rows, 0);
        for (std::size_t i = 0; i < dead_rows.size(); ++i) {
            hnlpu_assert(dead_rows[i] < rows, "dead row ", dead_rows[i],
                         " out of range (", rows, " rows)");
            hnlpu_assert(i == 0 || dead_rows[i - 1] < dead_rows[i],
                         "dead rows must be sorted and unique");
            dead_[dead_rows[i]] = 1;
        }
        deadRowCount_ = dead_rows.size();
    }

    neurons_.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<Fp4> row(weights_row_major.begin() + r * cols,
                             weights_row_major.begin() + (r + 1) * cols);
        for (const Fp4 &w : row) {
            if (w.isZero())
                ++zeroWeights_;
        }
        std::string error;
        auto topo = WireTopology::program(tmpl, row, &error);
        if (!topo) {
            hnlpu_fatal("HN array row ", r,
                        " failed to program: ", error);
        }
        neurons_.emplace_back(std::move(*topo));
    }

    // The Simd kernel's copy of the wiring: each input reads the 2*w
    // of the region it is wired into, unwired inputs read 0.  Built
    // after every row is programmed: allocating it before the rows
    // measured ~8% slower Packed decode on perfbench chat_fleet, a
    // heap-placement effect (the Packed kernel never reads the image).
    image_.assign(rows * cols, 0);
    const auto &twice = fp4TwiceValueTable();
    for (std::size_t r = 0; r < rows; ++r) {
        std::int8_t *image_row = image_.data() + r * cols;
        for (int code = 0; code < kFp4Codes; ++code) {
            for (std::uint32_t input : neurons_[r].topology().region(
                     static_cast<std::uint8_t>(code)))
                image_row[input] = static_cast<std::int8_t>(twice[code]);
        }
    }
}

std::vector<std::int64_t>
HnArray::gemvSerial(const std::vector<std::int64_t> &activations,
                    unsigned width, HnActivity *activity,
                    ThreadPool *pool, HnKernel kernel) const
{
    return gemmSerial({activations}, width, activity, pool, kernel);
}

std::vector<std::int64_t>
HnArray::gemmSerial(
    const std::vector<std::vector<std::int64_t>> &activations,
    unsigned width, HnActivity *activity, ThreadPool *pool,
    HnKernel kernel) const
{
    const std::size_t batch = activations.size();
    HnScratch scratch;
    scratch.ensureSlots(batch);
    const HnColumns cols =
        columnsView(scratch, batch, cols_, width, kernel);
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(activations[b].size() == cols_,
                     "batch column ", b, " size ", activations[b].size(),
                     " != array cols ", cols_);
        scratch.quantized[b].values = activations[b];
        prepareSlot(scratch, b, cols);
    }
    return evaluateAll(cols, pool, activity);
}

HnColumns
HnArray::prepareColumns(HnScratch &scratch, std::size_t count,
                        std::size_t dim, unsigned width, HnKernel kernel,
                        ThreadPool *pool)
{
    const HnColumns cols =
        columnsView(scratch, count, dim, width, kernel);
    const auto prepare = [&](std::size_t b) {
        quantizeSymmetric({scratch.columns[b], dim}, width,
                          scratch.quantized[b]);
        prepareSlot(scratch, b, cols);
    };
    // The body captures one reference, so its std::function stays in
    // the small buffer and preparing allocates nothing.
    parallelFor(pool, count,
                [&prepare](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b)
            prepare(b);
    });
    return cols;
}

void
HnArray::prepareSlot(HnScratch &scratch, std::size_t slot,
                     const HnColumns &cols)
{
    const std::vector<std::int64_t> &values = scratch.quantized[slot].values;
    if (cols.kernel == HnKernel::Packed) {
        scratch.planes[slot].build(values, cols.width);
    } else if (cols.kernel == HnKernel::Simd) {
        narrowColumn(values, cols.width,
                     scratch.narrowed.data() + slot * cols.dim);
    }
}

HnColumns
HnArray::columnsView(HnScratch &scratch, std::size_t count,
                     std::size_t dim, unsigned width, HnKernel kernel)
{
    hnlpu_assert(count <= scratch.quantized.size(), "scratch holds ",
                 scratch.quantized.size(), " slots, columns need ", count);
    HnColumns cols;
    cols.values = scratch.quantized.data();
    cols.count = count;
    cols.dim = dim;
    cols.width = width;
    // Activations wider than the dot body's int16 columns run the
    // Packed kernel.
    cols.kernel = kernel == HnKernel::Simd && width > kHnDotMaxWidth
                      ? HnKernel::Packed
                      : kernel;
    // The planes and narrowed columns are immutable once the slots are
    // prepared and shared read-only by every row worker without
    // synchronisation.  Sizing the narrowed buffer here, before any
    // slot is prepared, keeps its address fixed; it only grows, so
    // steady-state decode allocates nothing.
    if (cols.kernel == HnKernel::Packed) {
        cols.planes = scratch.planes.data();
    } else if (cols.kernel == HnKernel::Simd) {
        if (scratch.narrowed.size() < count * dim)
            scratch.narrowed.resize(count * dim);
        cols.narrowed = scratch.narrowed.data();
    }
    return cols;
}

std::vector<std::int64_t>
HnArray::evaluateAll(const HnColumns &cols, ThreadPool *pool,
                     HnActivity *activity) const
{
    std::vector<std::int64_t> out(neurons_.size() * cols.count);
    parallelRows(pool, neurons_.size(), activity,
                 [&](std::size_t begin, std::size_t end,
                     HnActivity *local) {
        evaluateRows(cols, begin, end, out.data() + begin * cols.count,
                     local);
    });
    return out;
}

void
HnArray::evaluateRows(const HnColumns &cols, std::size_t begin,
                      std::size_t end, std::int64_t *out,
                      HnActivity *activity) const
{
    hnlpu_assert(begin <= end && end <= neurons_.size(), "rows [", begin,
                 ", ", end, ") outside ", neurons_.size());
    hnlpu_assert(cols.kernel != HnKernel::Simd || cols.dim == cols_,
                 "columns of ", cols.dim, " values for an array of ",
                 cols_, " cols");
    const std::size_t batch = cols.count;
    for (std::size_t r = begin; r < end; ++r) {
        std::int64_t *row_out = out + (r - begin) * batch;
        // A dead neuron drives 0 and toggles nothing; the mask is
        // per-row state, so any row partition stays bit-exact.
        if (rowDead(r)) {
            std::fill(row_out, row_out + batch, 0);
        } else if (cols.kernel == HnKernel::Scalar) {
            for (std::size_t b = 0; b < batch; ++b) {
                row_out[b] = neurons_[r].computeSerial(
                    cols.values[b].values, cols.width, activity);
            }
        } else if (cols.kernel == HnKernel::Simd) {
            hnDotBatch(image_.data() + r * cols_, cols_, cols.narrowed,
                       batch, cols.width, row_out);
            if (activity) {
                std::size_t region_bits = 0;
                for (const RegionMask &region : neurons_[r].regionMasks())
                    region_bits += region.bits;
                neurons_[r].addActivity(cols.width, batch, region_bits,
                                        activity);
            }
        } else {
            for (std::size_t b0 = 0; b0 < batch; b0 += kHnBatchChunk) {
                const std::size_t n = std::min(kHnBatchChunk, batch - b0);
                neurons_[r].computePackedBatch(cols.planes + b0, n,
                                               row_out + b0, activity);
            }
        }
    }
}

void
HnArray::evaluateRowsReal(const HnColumns &cols, std::size_t begin,
                          std::size_t end, double *out, std::size_t stride,
                          HnActivity *activity) const
{
    hnlpu_assert(stride >= neurons_.size(), "output stride ", stride,
                 " below ", neurons_.size(), " rows");
    // Blocks of kRowBlock rows by kHnBatchChunk columns (the width of
    // one batched kernel call) are evaluated into a stack buffer and
    // dequantised from there.
    constexpr std::size_t kRowBlock = 16;
    std::int64_t ints[kRowBlock * kHnBatchChunk];
    for (std::size_t r0 = begin; r0 < end; r0 += kRowBlock) {
        const std::size_t r1 = std::min(end, r0 + kRowBlock);
        for (std::size_t b0 = 0; b0 < cols.count; b0 += kHnBatchChunk) {
            const std::size_t n = std::min(kHnBatchChunk, cols.count - b0);
            const HnColumns chunk = cols.slice(b0, n);
            evaluateRows(chunk, r0, r1, ints, activity);
            for (std::size_t b = 0; b < n; ++b) {
                // Weights contribute 2*w, so fold the missing 1/2 into
                // the column's scale.
                const double scale = chunk.values[b].scale * 0.5;
                double *const col_out = out + (b0 + b) * stride;
                for (std::size_t r = r0; r < r1; ++r) {
                    col_out[r] =
                        static_cast<double>(ints[(r - r0) * n + b]) *
                        scale;
                }
            }
        }
    }
}

std::vector<std::int64_t>
HnArray::gemvReference(const std::vector<std::int64_t> &activations) const
{
    std::vector<std::int64_t> out(neurons_.size());
    for (std::size_t r = 0; r < neurons_.size(); ++r) {
        out[r] = rowDead(r) ? 0
                            : neurons_[r].computeReference(activations);
    }
    return out;
}

bool
HnArray::rowDead(std::size_t row) const
{
    return !dead_.empty() && dead_[row] != 0;
}

std::vector<double>
HnArray::gemvReal(const std::vector<double> &activations, unsigned width,
                  HnActivity *activity, ThreadPool *pool,
                  HnKernel kernel) const
{
    return std::move(
        gemmReal({activations}, width, activity, pool, kernel).front());
}

std::vector<std::vector<double>>
HnArray::gemmReal(const std::vector<std::vector<double>> &activations,
                  unsigned width, HnActivity *activity, ThreadPool *pool,
                  HnKernel kernel) const
{
    const std::size_t batch = activations.size();
    HnScratch scratch;
    scratch.ensureSlots(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(activations[b].size() == cols_,
                     "batch column ", b, " size ", activations[b].size(),
                     " != array cols ", cols_);
        scratch.columns[b] = activations[b].data();
    }
    const HnColumns cols =
        prepareColumns(scratch, batch, cols_, width, kernel, pool);
    const std::size_t rows = neurons_.size();
    scratch.values.resize(rows * batch);
    double *const flat = scratch.values.data();
    parallelRows(pool, rows, activity,
                 [&](std::size_t begin, std::size_t end,
                     HnActivity *local) {
        evaluateRowsReal(cols, begin, end, flat, rows, local);
    });
    std::vector<std::vector<double>> out;
    out.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b)
        out.emplace_back(flat + b * rows, flat + (b + 1) * rows);
    return out;
}

const HardwiredNeuron &
HnArray::neuron(std::size_t row) const
{
    hnlpu_assert(row < neurons_.size(), "neuron row out of range");
    return neurons_[row];
}

HnArrayStats
HnArray::stats() const
{
    HnArrayStats s;
    s.rows = neurons_.size();
    s.cols = cols_;
    s.zeroWeights = zeroWeights_;
    s.deadRows = deadRowCount_;
    for (const auto &neuron : neurons_) {
        s.totalWires += neuron.topology().wireCount();
        s.groundedPorts += neuron.topology().groundedPorts();
    }
    return s;
}

std::vector<Fp4>
syntheticFp4Weights(std::size_t count, std::uint64_t seed, double stddev)
{
    Rng rng(seed);
    std::vector<Fp4> weights;
    weights.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        weights.push_back(Fp4::quantize(rng.gaussian(0.0, stddev)));
    return weights;
}

} // namespace hnlpu
