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
 * Execution context for the expert projections: same path / bits /
 * kernel / arena as the layer call, but no pool (experts already run
 * under the layer's parallelFor; a nested one would be inline anyway)
 * and no activity/sink (matching the historical per-expert calls, and
 * keeping span emission off the worker threads).
 */
ExecContext
expertContext(const ExecContext &ctx)
{
    ExecContext sub;
    sub.path = ctx.path;
    sub.activationBits = ctx.activationBits;
    sub.kernel = ctx.kernel;
    sub.arena = ctx.arena;
    return sub;
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
            const std::vector<Vec> logits = router_.forwardBatch(
                xs, ExecContext{ExecPath::Reference});
            for (std::size_t t = 0; t < batch; ++t) {
                chosen[t] = topK(logits[t], activeExperts_);
                Vec selected_logits(chosen[t].size());
                for (std::size_t i = 0; i < chosen[t].size(); ++i)
                    selected_logits[i] = logits[t][chosen[t][i]];
                gates[t] = softmax(selected_logits);
            }
        }
    }
    std::copy(chosen.begin(), chosen.begin() + selected.size(),
              selected.begin());

    // Group (token, routing position) pairs by expert so each chosen
    // expert's projections traverse their weights once for every token
    // that routed to it.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        groups(experts_.size());
    for (std::size_t t = 0; t < batch; ++t) {
        for (std::size_t i = 0; i < chosen[t].size(); ++i)
            groups[chosen[t][i]].emplace_back(t, i);
    }
    std::vector<std::size_t> active;
    for (std::size_t e = 0; e < experts_.size(); ++e) {
        if (!groups[e].empty())
            active.push_back(e);
    }

    // expert_outs[t][i] holds expert chosen[t][i]'s output for token t.
    // Groups fill disjoint slots, so they may run on pool workers; the
    // combine below walks each token's routing order serially, so the
    // floating-point accumulation order -- and the doubles -- do not
    // depend on the batch or the pool.
    std::vector<std::vector<Vec>> expert_outs(batch);
    for (std::size_t t = 0; t < batch; ++t)
        expert_outs[t].resize(chosen[t].size());

    const ExecContext sub = expertContext(ctx);
    {
        obs::ScopedSpan span(trace, "moe", "moe.experts");
        parallelFor(ctx.pool, active.size(),
                    [&](std::size_t begin, std::size_t end) {
            for (std::size_t g = begin; g < end; ++g) {
                const std::size_t e = active[g];
                const auto &members = groups[e];
                const Expert &ex = experts_[e];
                std::vector<Vec> inputs(members.size());
                for (std::size_t m = 0; m < members.size(); ++m)
                    inputs[m] = xs[members[m].first];
                const std::vector<Vec> up =
                    ex.up.forwardBatch(inputs, sub);
                const std::vector<Vec> gate =
                    ex.gate.forwardBatch(inputs, sub);
                std::vector<Vec> activated(members.size());
                for (std::size_t m = 0; m < members.size(); ++m)
                    activated[m] = swiGlu(gate[m], up[m]);
                std::vector<Vec> down =
                    ex.down.forwardBatch(activated, sub);
                for (std::size_t m = 0; m < members.size(); ++m) {
                    expert_outs[members[m].first][members[m].second] =
                        std::move(down[m]);
                }
            }
        });
    }

    std::vector<Vec> out(batch, Vec(experts_[0].down.outDim(), 0.0));
    for (std::size_t t = 0; t < batch; ++t) {
        for (std::size_t i = 0; i < chosen[t].size(); ++i) {
            for (std::size_t d = 0; d < out[t].size(); ++d)
                out[t][d] += gates[t][i] * expert_outs[t][i][d];
        }
    }
    return out;
}

} // namespace hnlpu
