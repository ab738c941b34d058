#include "hn/hn_array.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

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

} // namespace

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
}

std::vector<std::int64_t>
HnArray::gemvSerial(const std::vector<std::int64_t> &activations,
                    unsigned width, HnActivity *activity,
                    ThreadPool *pool, HnKernel kernel,
                    HnScratchArena *arena) const
{
    return gemmSerial({activations}, width, activity, pool, kernel, arena);
}

std::vector<std::int64_t>
HnArray::gemmSerial(
    const std::vector<std::vector<std::int64_t>> &activations,
    unsigned width, HnActivity *activity, ThreadPool *pool,
    HnKernel kernel, HnScratchArena *arena) const
{
    const std::size_t batch = activations.size();
    std::vector<std::int64_t> out(neurons_.size() * batch);
    if (batch == 0)
        return out;
    for (std::size_t b = 0; b < batch; ++b) {
        hnlpu_assert(activations[b].size() == cols_,
                     "batch column ", b, " size ", activations[b].size(),
                     " != array cols ", cols_);
    }

    // Packed/Simd kernels: serialise every column at most once --
    // per-column CachedPlanes skip even that when a recycled scratch
    // already holds that column (the engine feeds one column to
    // several projections back to back).  The planes are immutable for
    // the lifetime of the GEMM and shared read-only by all row workers
    // without synchronisation.
    std::optional<HnScratchLease> lease;
    std::vector<const PackedPlanes *> planes;
    if (kernel != HnKernel::Scalar) {
        lease.emplace(arena);
        auto &batch_planes = lease->get().batchPlanes;
        if (batch_planes.size() < batch)
            batch_planes.resize(batch);
        planes.resize(batch);
        for (std::size_t b = 0; b < batch; ++b)
            planes[b] = &batch_planes[b].ensure(activations[b], width);
    }

    // Each worker owns a disjoint, cache-line-aligned row range of
    // `out` and a padded activity shard; the shards are folded after
    // the join (exact integer sums, so shard-then-merge is bit-exact).
    std::vector<ActivityShard> shards;
    if (activity)
        shards.resize(pool ? pool->threadCount() : 1);

    parallelForChunked(
        pool, neurons_.size(),
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
            HnActivity *local =
                activity ? &shards[chunk].value : nullptr;
            for (std::size_t r = begin; r < end; ++r) {
                std::int64_t *row_out = out.data() + r * batch;
                // A dead neuron drives 0 and toggles nothing; the mask
                // is per-row state, so the parallel result stays
                // bit-exact.
                if (rowDead(r)) {
                    for (std::size_t b = 0; b < batch; ++b)
                        row_out[b] = 0;
                } else if (!planes.empty()) {
                    for (std::size_t b0 = 0; b0 < batch;
                         b0 += kHnBatchChunk) {
                        const std::size_t cols =
                            std::min(kHnBatchChunk, batch - b0);
                        if (kernel == HnKernel::Simd)
                            neurons_[r].computeSimdBatch(
                                planes.data() + b0, cols, row_out + b0,
                                local);
                        else
                            neurons_[r].computePackedBatch(
                                planes.data() + b0, cols, row_out + b0,
                                local);
                    }
                } else {
                    for (std::size_t b = 0; b < batch; ++b) {
                        row_out[b] = neurons_[r].computeSerial(
                            activations[b], width, local);
                    }
                }
            }
        },
        /*grain=*/1, kRowAlign);

    if (activity) {
        for (const ActivityShard &shard : shards)
            activity->add(shard.value);
    }
    return out;
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
                  HnActivity *activity, ThreadPool *pool, HnKernel kernel,
                  HnScratchArena *arena) const
{
    return std::move(
        gemmReal({activations}, width, activity, pool, kernel, arena)
            .front());
}

std::vector<std::vector<double>>
HnArray::gemmReal(const std::vector<std::vector<double>> &activations,
                  unsigned width, HnActivity *activity, ThreadPool *pool,
                  HnKernel kernel, HnScratchArena *arena) const
{
    const std::size_t batch = activations.size();
    std::vector<std::vector<std::int64_t>> ints(batch);
    std::vector<double> scales(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        QuantizedVector q = quantizeSymmetric(activations[b], width);
        ints[b] = std::move(q.values);
        // Weights contribute 2*w, so fold the missing 1/2 into the
        // per-column scale.
        scales[b] = q.scale * 0.5;
    }
    const std::vector<std::int64_t> flat =
        gemmSerial(ints, width, activity, pool, kernel, arena);
    std::vector<std::vector<double>> out(
        batch, std::vector<double>(neurons_.size()));
    for (std::size_t r = 0; r < neurons_.size(); ++r) {
        for (std::size_t b = 0; b < batch; ++b)
            out[b][r] =
                static_cast<double>(flat[r * batch + b]) * scales[b];
    }
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
