#include "xformer/linear.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace hnlpu {

Linear::Linear(std::vector<Fp4> weights, std::size_t out_dim,
               std::size_t in_dim, std::vector<std::uint32_t> dead_rows)
    : weights_(std::move(weights)), outDim_(out_dim), inDim_(in_dim),
      deadRows_(std::move(dead_rows)),
      hardwiredState_(std::make_shared<HardwiredState>())
{
    hnlpu_assert(weights_.size() == outDim_ * inDim_,
                 "linear weight count mismatch");
    for (std::size_t i = 0; i < deadRows_.size(); ++i) {
        hnlpu_assert(deadRows_[i] < outDim_, "dead row ", deadRows_[i],
                     " out of range (", outDim_, " rows)");
        hnlpu_assert(i == 0 || deadRows_[i - 1] < deadRows_[i],
                     "dead rows must be sorted and unique");
    }
}

Linear
Linear::fromReal(const Mat &weights)
{
    std::vector<Fp4> codes;
    codes.reserve(weights.rows() * weights.cols());
    for (double v : weights.data())
        codes.push_back(Fp4::quantize(v));
    return Linear(std::move(codes), weights.rows(), weights.cols());
}

Linear
Linear::random(std::size_t out_dim, std::size_t in_dim,
               std::uint64_t seed)
{
    Rng rng(seed);
    // Scale so dot products stay O(1) for unit-variance inputs; FP4 has
    // a coarse grid so we stretch into its dynamic range first.
    const double stddev = 1.5;
    std::vector<Fp4> codes;
    codes.reserve(out_dim * in_dim);
    for (std::size_t i = 0; i < out_dim * in_dim; ++i)
        codes.push_back(Fp4::quantize(rng.gaussian(0.0, stddev)));
    return Linear(std::move(codes), out_dim, in_dim);
}

const HnArray &
Linear::hardwired() const
{
    HardwiredState &state = *hardwiredState_;
    std::call_once(state.once, [&] {
        SeaOfNeuronsTemplate tmpl;
        tmpl.inputCount = inDim_;
        tmpl.portsPerSlice = 16;
        tmpl.slackFactor = 4.0;
        state.array = std::make_unique<HnArray>(tmpl, weights_, outDim_,
                                                inDim_, deadRows_);
    });
    return *state.array;
}

Vec
Linear::forward(const Vec &x, const ExecContext &ctx) const
{
    return std::move(forwardBatch({x}, ctx).front());
}

LinearColumns
LinearColumns::slice(std::size_t first, std::size_t n) const
{
    hnlpu_assert(first + n <= count, "column slice [", first, ", ",
                 first + n, ") outside ", count);
    LinearColumns view = *this;
    view.count = n;
    if (path == ExecPath::Hardwired)
        view.hn = hn.slice(first, n);
    else
        view.reals += first;
    return view;
}

std::vector<Vec>
Linear::forwardBatch(const std::vector<Vec> &xs,
                     const ExecContext &ctx) const
{
    const Linear *const self = this;
    std::vector<Vec> ys;
    forwardFused({&self, 1}, xs, ctx, {&ys, 1});
    return ys;
}

void
Linear::forwardFused(std::span<const Linear *const> projections,
                     const std::vector<Vec> &xs, const ExecContext &ctx,
                     std::span<std::vector<Vec>> ys)
{
    hnlpu_assert(!projections.empty() &&
                     ys.size() == projections.size(),
                 ys.size(), " outputs for ", projections.size(),
                 " projections");
    const std::size_t batch = xs.size();
    const std::size_t in_dim = projections.front()->inDim_;
    std::size_t rows = 0;
    for (const Linear *p : projections) {
        hnlpu_assert(p->inDim_ == in_dim, "fused projections of input "
                     "width ", p->inDim_, " and ", in_dim);
        rows += p->outDim_;
    }
    if (batch == 0) {
        for (std::vector<Vec> &y : ys)
            y.clear();
        return;
    }
    HnScratchLease lease(ctx.scratch);
    HnScratch &scratch = lease.get();
    scratch.ensureSlots(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(xs[b].size() == in_dim,
                     "batch column ", b, " input size mismatch: ",
                     xs[b].size(), " vs ", in_dim);
        scratch.columns[b] = xs[b].data();
    }
    const LinearColumns cols = prepareColumns(scratch, batch, in_dim, ctx);
    // Each projection stages its outputs as one column-major block of
    // out_p x batch values, in projection order: the block of the
    // projection whose rows start at row `first` of the concatenation
    // starts at out + first * batch.
    scratch.values.resize(rows * batch);
    double *const out = scratch.values.data();

    // A reference row is in_dim multiply-adds per column, so small
    // projections (attention heads, routers) are microsecond-scale
    // jobs; the grain keeps each chunk worth at least ~16k
    // multiply-adds so the pool never wakes a worker for less work
    // than the wake costs -- this is what un-regressed the reference
    // path past 2 threads.  A hardwired row is worth a chunk of its
    // own.
    const std::size_t grain =
        ctx.path == ExecPath::Hardwired
            ? 1
            : std::max<std::size_t>(
                  1, std::size_t(16384) / (in_dim * batch));
    parallelRows(ctx.pool, rows, ctx.activity,
                 [&](std::size_t begin, std::size_t end,
                     HnActivity *local) {
        std::size_t first = 0;
        for (const Linear *p : projections) {
            const std::size_t lo = std::max(begin, first);
            const std::size_t hi = std::min(end, first + p->outDim_);
            if (lo < hi) {
                p->evaluateRows(cols, lo - first, hi - first,
                                out + first * batch, p->outDim_, local);
            }
            first += p->outDim_;
        }
    }, grain);

    const double *block = out;
    for (std::size_t i = 0; i < projections.size(); ++i) {
        const std::size_t out_dim = projections[i]->outDim_;
        ys[i].clear();
        ys[i].reserve(batch);
        for (std::size_t b = 0; b < batch; ++b)
            ys[i].emplace_back(block + b * out_dim,
                               block + (b + 1) * out_dim);
        block += out_dim * batch;
    }
}

LinearColumns
Linear::prepareColumns(HnScratch &scratch, std::size_t count,
                       std::size_t dim, const ExecContext &ctx)
{
    LinearColumns cols;
    cols.path = ctx.path;
    cols.count = count;
    cols.dim = dim;
    if (ctx.path == ExecPath::Hardwired) {
        cols.hn = HnArray::prepareColumns(scratch, count, dim,
                                          ctx.activationBits, ctx.kernel,
                                          ctx.pool);
    } else {
        cols.reals = scratch.columns.data();
    }
    return cols;
}

void
Linear::evaluateRows(const LinearColumns &cols, std::size_t begin,
                     std::size_t end, double *out, std::size_t stride,
                     HnActivity *activity) const
{
    hnlpu_assert(cols.dim == inDim_, "columns of ", cols.dim,
                 " values for a projection of input width ", inDim_);
    hnlpu_assert(begin <= end && end <= outDim_ && stride >= outDim_,
                 "rows [", begin, ", ", end, ") stride ", stride,
                 " outside ", outDim_);
    const std::size_t batch = cols.count;
    if (cols.path == ExecPath::Hardwired) {
        hardwired().evaluateRowsReal(cols.hn, begin, end, out, stride,
                                     activity);
        return;
    }

    const auto &values = fp4ValueTable();
    for (std::size_t r = begin; r < end; ++r) {
        const Fp4 *row = weights_.data() + r * inDim_;
        std::size_t b = 0;
        // Four-column unroll: each weight is dequantised once and
        // multiplied into four independent accumulator chains.  Every
        // column runs the same multiply/add sequence in the unroll and
        // in the tail, so a column's doubles do not depend on the
        // batch it rides in.
        for (; b + 4 <= batch; b += 4) {
            const double *x0 = cols.reals[b + 0];
            const double *x1 = cols.reals[b + 1];
            const double *x2 = cols.reals[b + 2];
            const double *x3 = cols.reals[b + 3];
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            for (std::size_t c = 0; c < inDim_; ++c) {
                const double w = values[row[c].code()];
                a0 += w * x0[c];
                a1 += w * x1[c];
                a2 += w * x2[c];
                a3 += w * x3[c];
            }
            out[(b + 0) * stride + r] = a0;
            out[(b + 1) * stride + r] = a1;
            out[(b + 2) * stride + r] = a2;
            out[(b + 3) * stride + r] = a3;
        }
        for (; b < batch; ++b) {
            double acc = 0.0;
            const double *x = cols.reals[b];
            for (std::size_t c = 0; c < inDim_; ++c)
                acc += values[row[c].code()] * x[c];
            out[b * stride + r] = acc;
        }
    }
    // Dead neurons read as exactly 0.0, matching the hardwired mask.
    for (auto it = std::lower_bound(deadRows_.begin(), deadRows_.end(),
                                    begin);
         it != deadRows_.end() && *it < end; ++it) {
        for (std::size_t b = 0; b < batch; ++b)
            out[b * stride + *it] = 0.0;
    }
}

double
Linear::weightValue(std::size_t row, std::size_t col) const
{
    hnlpu_assert(row < outDim_ && col < inDim_, "weight index range");
    return weights_[row * inDim_ + col].value();
}

Linear
Linear::slice(std::size_t row0, std::size_t rows, std::size_t col0,
              std::size_t cols) const
{
    hnlpu_assert(row0 + rows <= outDim_ && col0 + cols <= inDim_,
                 "slice out of range");
    std::vector<Fp4> shard;
    shard.reserve(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const Fp4 *row = weights_.data() + (row0 + r) * inDim_ + col0;
        shard.insert(shard.end(), row, row + cols);
    }
    // Dead rows inside the slice window carry over (local indices), so
    // per-chip shards of a faulty projection stay faulty.
    std::vector<std::uint32_t> dead;
    for (std::uint32_t r : deadRows_) {
        if (r >= row0 && r < row0 + rows)
            dead.push_back(std::uint32_t(r - row0));
    }
    return Linear(std::move(shard), rows, cols, std::move(dead));
}

} // namespace hnlpu
