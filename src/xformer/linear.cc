#include "xformer/linear.hh"

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

std::vector<Vec>
Linear::forwardBatch(const std::vector<Vec> &xs,
                     const ExecContext &ctx) const
{
    const std::size_t batch = xs.size();
    if (batch == 0)
        return {};
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(xs[b].size() == inDim_,
                     "batch column ", b, " input size mismatch: ",
                     xs[b].size(), " vs ", inDim_);
    }
    if (ctx.path == ExecPath::Hardwired) {
        return hardwired().gemmReal(xs, ctx.activationBits, ctx.activity,
                                    ctx.pool, ctx.kernel, ctx.arena);
    }

    std::vector<Vec> ys(batch, Vec(outDim_, 0.0));
    const auto &values = fp4ValueTable();
    // A reference row is inDim_ multiply-adds per column, so small
    // projections (attention heads, routers) are microsecond-scale
    // jobs; the grain keeps each chunk worth at least ~16k
    // multiply-adds so the pool never wakes a worker for less work
    // than the wake costs -- this is what un-regressed the reference
    // path past 2 threads.
    const std::size_t grain = std::max<std::size_t>(
        1, std::size_t(16384) / (inDim_ * batch));
    parallelFor(ctx.pool, outDim_,
                [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            const Fp4 *row = weights_.data() + r * inDim_;
            std::size_t b = 0;
            // Four-column unroll: each weight is dequantised once and
            // multiplied into four independent accumulator chains.
            // Every column runs the same multiply/add sequence in the
            // unroll and in the tail, so a column's doubles do not
            // depend on the batch it rides in.
            for (; b + 4 <= batch; b += 4) {
                const double *x0 = xs[b + 0].data();
                const double *x1 = xs[b + 1].data();
                const double *x2 = xs[b + 2].data();
                const double *x3 = xs[b + 3].data();
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                for (std::size_t c = 0; c < inDim_; ++c) {
                    const double w = values[row[c].code()];
                    a0 += w * x0[c];
                    a1 += w * x1[c];
                    a2 += w * x2[c];
                    a3 += w * x3[c];
                }
                ys[b + 0][r] = a0;
                ys[b + 1][r] = a1;
                ys[b + 2][r] = a2;
                ys[b + 3][r] = a3;
            }
            for (; b < batch; ++b) {
                double acc = 0.0;
                const double *x = xs[b].data();
                for (std::size_t c = 0; c < inDim_; ++c)
                    acc += values[row[c].code()] * x[c];
                ys[b][r] = acc;
            }
        }
    }, grain);
    // Dead neurons read as exactly 0.0, matching the hardwired mask.
    for (std::uint32_t r : deadRows_) {
        for (std::size_t b = 0; b < batch; ++b)
            ys[b][r] = 0.0;
    }
    return ys;
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
