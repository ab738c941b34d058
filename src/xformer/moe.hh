/**
 * @file
 * Mixture-of-Experts feed-forward layer (router + SwiGLU experts).
 *
 * Mirrors the gpt-oss structure the paper hardwires: a replicated router
 * projects the normalised hidden state onto expert logits, top-k experts
 * are selected, their SwiGLU outputs are combined with softmax-normalised
 * router weights (paper Fig. 10 (VII)-(IX)).  Dense models degenerate to
 * one always-active expert.
 */

#ifndef HNLPU_XFORMER_MOE_HH
#define HNLPU_XFORMER_MOE_HH

#include <span>
#include <vector>

#include "xformer/linear.hh"
#include "xformer/tensor.hh"

namespace hnlpu {

/** One SwiGLU expert: up, gate and down projections. */
struct Expert
{
    Linear up;
    Linear gate;
    Linear down;
};

/** Routed feed-forward layer. */
class MoeLayer
{
  public:
    /**
     * @param router expert-logit projection (expert_count x hidden);
     *        pass an empty optional-like 0-expert linear for dense nets
     * @param experts expert list (size >= 1)
     * @param active_experts top-k selection width
     */
    MoeLayer(Linear router, std::vector<Expert> experts,
             std::size_t active_experts);

    /** Dense single-expert layer (router bypassed). */
    static MoeLayer dense(Expert expert);

    /**
     * forwardBatch of one token.
     * @param selected optional out-param for the chosen expert indices
     */
    Vec forward(const Vec &x_norm, const ExecContext &ctx,
                std::vector<std::size_t> *selected = nullptr) const;

    /**
     * Forward the normalised hidden states @p xs under @p ctx: every
     * token routes independently (reference-precision router, per-token
     * top-k), then the (token, routing position) pairs are grouped by
     * expert so each chosen expert's projections traverse their
     * weights once for the whole group.  The expert stage is one
     * schedule of two phases, each a single parallelFor over
     * (expert, row-tile) tasks covering the rows of every active
     * expert: phase 1 evaluates up and gate rows off one preparation
     * of each group's columns (Linear::prepareColumns, shared by both
     * matrices) and applies SwiGLU to the tile's rows; phase 2
     * evaluates down rows.  Tiles are sized by their group's column
     * count so each carries about the same work and the pool's static
     * chunks stay balanced; without a pool each expert is one tile.
     * Every output element is computed as in a serial pass and each
     * token combines serially in its own routing order, so token t's
     * output is bit-identical to running it alone (a batch of one)
     * and to the serial execution.  ctx.path/activationBits/kernel
     * drive the expert projections; their buffers are leased from
     * ctx.scratch.
     *
     * The expert GEMMs count no HnActivity: ctx.activity (and so
     * EngineStats::hnActivity and the benchmark's hn.* counts) covers
     * only the attention projections and the unembedding, not the
     * expert weights that dominate the paper's energy model.
     *
     * When ctx.sink carries a tracer, "moe.route" / "moe.experts" spans
     * are emitted (cat "moe").
     * @param selected empty, or one entry per token that receives the
     *        token's chosen expert indices
     */
    std::vector<Vec> forwardBatch(
        const std::vector<Vec> &xs, const ExecContext &ctx,
        std::span<std::vector<std::size_t>> selected = {}) const;

    std::size_t expertCount() const { return experts_.size(); }
    std::size_t activeExperts() const { return activeExperts_; }

    /** The router projection (bypassed for dense layers). */
    const Linear &router() const { return router_; }
    /** Expert @p index (asserted in moe.cc). */
    const Expert &expert(std::size_t index) const;

  private:
    Linear router_;
    std::vector<Expert> experts_;
    std::size_t activeExperts_;
    bool isDense_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_MOE_HH
