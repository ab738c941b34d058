#include "xformer/moe.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "xformer/ops.hh"

namespace hnlpu {

namespace {

/** The tracer carried by @p ctx, or null when tracing is off. */
obs::Tracer *
tracerOf(const ExecContext &ctx)
{
    return ctx.sink ? ctx.sink->trace : nullptr;
}

/**
 * One task of the expert stage: rows [begin, end) of expert `expert`'s
 * projection against its group's columns [first, first + count).
 */
struct ExpertTile
{
    std::size_t expert;
    std::size_t first;
    std::size_t count;
    std::size_t begin;
    std::size_t end;
};

/** Tiles per pool lane each phase of the expert stage aims for. */
constexpr std::size_t kTilesPerLane = 4;

/** Tile heights are multiples of one cache line of double outputs. */
constexpr std::size_t kTileAlign = 8;

/**
 * Cut the @p rows rows of every active expert's projection into tiles
 * for @p lanes pool lanes.  Expert e's group is columns
 * [group_begin[e], group_begin[e + 1]).  A tile of an n-column group
 * gets about rows * columns / (lanes * kTilesPerLane) / n rows, so
 * every tile carries about the same rows x columns of work and the
 * pool's static contiguous chunks of tiles stay balanced however
 * unevenly the tokens routed.  One lane takes whole experts.
 */
void
expertTiles(const std::vector<std::size_t> &group_begin, std::size_t rows,
            std::size_t lanes, std::vector<ExpertTile> &tiles)
{
    tiles.clear();
    const std::size_t tile_count = lanes * kTilesPerLane;
    const std::size_t work =
        (rows * group_begin.back() + tile_count - 1) / tile_count;
    for (std::size_t e = 0; e + 1 < group_begin.size(); ++e) {
        const std::size_t count = group_begin[e + 1] - group_begin[e];
        if (count == 0)
            continue;
        std::size_t height = rows;
        if (lanes > 1) {
            height = (work + count - 1) / count;
            height = std::min(rows, (height + kTileAlign - 1) /
                                        kTileAlign * kTileAlign);
        }
        for (std::size_t r = 0; r < rows; r += height) {
            tiles.push_back(ExpertTile{e, group_begin[e], count, r,
                                       std::min(rows, r + height)});
        }
    }
}

} // namespace

MoeLayer::MoeLayer(Linear router, std::vector<Expert> experts,
                   std::size_t active_experts)
    : router_(std::move(router)), experts_(std::move(experts)),
      activeExperts_(active_experts), isDense_(false)
{
    hnlpu_assert(!experts_.empty(), "MoE needs at least one expert");
    hnlpu_assert(activeExperts_ >= 1 &&
                     activeExperts_ <= experts_.size(),
                 "bad top-k width");
    hnlpu_assert(router_.outDim() == experts_.size(),
                 "router out dim must equal expert count");
    // The expert stage stages every expert's outputs at one stride.
    const Expert &first = experts_.front();
    for (const Expert &ex : experts_) {
        hnlpu_assert(ex.up.inDim() == first.up.inDim() &&
                         ex.up.outDim() == first.up.outDim() &&
                         ex.gate.inDim() == first.up.inDim() &&
                         ex.gate.outDim() == first.up.outDim() &&
                         ex.down.inDim() == first.up.outDim() &&
                         ex.down.outDim() == first.down.outDim(),
                     "experts must share one up/gate/down shape");
    }
}

MoeLayer
MoeLayer::dense(Expert expert)
{
    // A one-output dummy router keeps the invariants; it is bypassed.
    Linear router(std::vector<Fp4>(expert.up.inDim(),
                                   Fp4::quantize(0.0)),
                  1, expert.up.inDim());
    std::vector<Expert> experts;
    experts.push_back(std::move(expert));
    MoeLayer layer(std::move(router), std::move(experts), 1);
    layer.isDense_ = true;
    return layer;
}

const Expert &
MoeLayer::expert(std::size_t index) const
{
    hnlpu_assert(index < experts_.size(), "expert index range");
    return experts_[index];
}

Vec
MoeLayer::forward(const Vec &x_norm, const ExecContext &ctx,
                  std::vector<std::size_t> *selected) const
{
    return std::move(
        forwardBatch({x_norm}, ctx, {selected, selected ? 1u : 0u})
            .front());
}

std::vector<Vec>
MoeLayer::forwardBatch(
    const std::vector<Vec> &xs, const ExecContext &ctx,
    std::span<std::vector<std::size_t>> selected) const
{
    const std::size_t batch = xs.size();
    hnlpu_assert(selected.empty() || selected.size() == batch,
                 "selected holds ", selected.size(), " entries for ",
                 batch, " tokens");
    if (batch == 0)
        return {};

    obs::Tracer *const trace = tracerOf(ctx);
    const std::size_t k = activeExperts_;

    // Route every token independently; a router column does not depend
    // on the batch it rides in, so top-k picks and gate weights are
    // those of a solo token.
    std::vector<std::vector<std::size_t>> chosen(batch);
    std::vector<Vec> gates(batch);
    {
        obs::ScopedSpan span(trace, "moe", "moe.route");
        if (isDense_ || experts_.size() == 1) {
            for (std::size_t t = 0; t < batch; ++t) {
                chosen[t] = {0};
                gates[t] = {1.0};
            }
        } else {
            // The router always runs in reference precision: it is
            // tiny (0.01% of weights) and replicated on every chip,
            // and its argmax ordering must be stable across paths for
            // the equivalence tests to be meaningful.
            ExecContext route_ctx{ExecPath::Reference};
            route_ctx.scratch = ctx.scratch;
            const std::vector<Vec> logits =
                router_.forwardBatch(xs, route_ctx);
            for (std::size_t t = 0; t < batch; ++t) {
                chosen[t] = topK(logits[t], k);
                Vec selected_logits(k);
                for (std::size_t i = 0; i < k; ++i)
                    selected_logits[i] = logits[t][chosen[t][i]];
                gates[t] = softmax(selected_logits);
            }
        }
    }
    std::copy(chosen.begin(), chosen.begin() + selected.size(),
              selected.begin());

    // Lay the (token, routing position) pairs out as columns grouped
    // by expert: expert e's group is columns [group_begin[e],
    // group_begin[e + 1]) in token order, so each chosen expert's
    // projections traverse their weights once for every token that
    // routed to it.  Pair (t, i) is column column_of[t * k + i].
    std::vector<std::size_t> group_begin(experts_.size() + 1, 0);
    for (std::size_t t = 0; t < batch; ++t) {
        for (std::size_t e : chosen[t])
            ++group_begin[e + 1];
    }
    for (std::size_t e = 0; e < experts_.size(); ++e)
        group_begin[e + 1] += group_begin[e];
    const std::size_t columns = group_begin.back();

    const std::size_t hidden = experts_[0].up.inDim();
    const std::size_t ffn = experts_[0].up.outDim();
    const std::size_t out_dim = experts_[0].down.outDim();
    HnScratchLease lease(ctx.scratch);
    HnScratch &scratch = lease.get();
    scratch.ensureSlots(columns);
    // Column-major staging: up (then silu(gate) * up) and gate are
    // ffn rows per column, down out_dim rows per column.
    scratch.values.resize((2 * ffn + out_dim) * columns);
    double *const act = scratch.values.data();
    double *const gate = act + ffn * columns;
    double *const down = gate + ffn * columns;

    std::vector<std::size_t> column_of(batch * k);
    {
        std::vector<std::size_t> next(group_begin.begin(),
                                      group_begin.end() - 1);
        for (std::size_t t = 0; t < batch; ++t) {
            hnlpu_assert(xs[t].size() == hidden, "token ", t, " has ",
                         xs[t].size(), " values, experts take ", hidden);
            for (std::size_t i = 0; i < k; ++i) {
                const std::size_t c = next[chosen[t][i]]++;
                column_of[t * k + i] = c;
                scratch.columns[c] = xs[t].data();
            }
        }
    }

    // Each phase is one parallelFor over (expert, row-tile) tasks that
    // cover the rows of every active expert.  Tasks write disjoint
    // (column, row) ranges, and every output element is computed as in
    // a serial pass, so the result depends on neither the pool nor
    // the batch.  Expert GEMMs count no HnActivity (see moe.hh).
    const std::size_t lanes = ctx.pool ? ctx.pool->threadCount() : 1;
    std::vector<ExpertTile> tiles;
    {
        obs::ScopedSpan span(trace, "moe", "moe.experts");
        // Phase 1: up and gate rows off one preparation of each
        // group's columns, then silu(gate) * up for the tile's rows.
        const LinearColumns in =
            Linear::prepareColumns(scratch, columns, hidden, ctx);
        expertTiles(group_begin, ffn, lanes, tiles);
        parallelFor(ctx.pool, tiles.size(),
                    [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const ExpertTile &tile = tiles[i];
                const Expert &ex = experts_[tile.expert];
                const LinearColumns cols =
                    in.slice(tile.first, tile.count);
                double *const up_out = act + tile.first * ffn;
                double *const gate_out = gate + tile.first * ffn;
                ex.up.evaluateRows(cols, tile.begin, tile.end, up_out,
                                   ffn, nullptr);
                ex.gate.evaluateRows(cols, tile.begin, tile.end,
                                     gate_out, ffn, nullptr);
                for (std::size_t m = 0; m < tile.count; ++m) {
                    double *const u = up_out + m * ffn;
                    const double *const g = gate_out + m * ffn;
                    for (std::size_t r = tile.begin; r < tile.end; ++r)
                        u[r] = silu(g[r]) * u[r];
                }
            }
        });

        // Phase 2: down rows over the activated columns.
        for (std::size_t c = 0; c < columns; ++c)
            scratch.columns[c] = act + c * ffn;
        const LinearColumns mid =
            Linear::prepareColumns(scratch, columns, ffn, ctx);
        expertTiles(group_begin, out_dim, lanes, tiles);
        parallelFor(ctx.pool, tiles.size(),
                    [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const ExpertTile &tile = tiles[i];
                experts_[tile.expert].down.evaluateRows(
                    mid.slice(tile.first, tile.count), tile.begin,
                    tile.end, down + tile.first * out_dim, out_dim,
                    nullptr);
            }
        });
    }

    // Each token combines serially in its own routing order, so the
    // floating-point accumulation order -- and the doubles -- do not
    // depend on the batch or the pool.
    std::vector<Vec> out(batch, Vec(out_dim, 0.0));
    for (std::size_t t = 0; t < batch; ++t) {
        for (std::size_t i = 0; i < k; ++i) {
            const double *const y = down + column_of[t * k + i] * out_dim;
            for (std::size_t d = 0; d < out_dim; ++d)
                out[t][d] += gates[t][i] * y[d];
        }
    }
    return out;
}

} // namespace hnlpu
