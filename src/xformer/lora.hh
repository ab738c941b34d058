/**
 * @file
 * LoRA side-channel adapters (paper Section 8, future work (4)).
 *
 * The HNLPU's weights are physically immutable; the paper proposes
 * adding ~1% of field-programmable HNs as a side channel that
 * accumulates a low-rank correction B(Ax) alongside each hardwired
 * projection, enabling post-deployment updates without a metal
 * re-spin.  This module provides those adapters: the frozen projection
 * runs on its usual (reference or hardwired) path while the rank-r
 * delta runs in the programmable side channel and is summed in.
 */

#ifndef HNLPU_XFORMER_LORA_HH
#define HNLPU_XFORMER_LORA_HH

#include <cstdint>
#include <map>
#include <vector>

#include "xformer/linear.hh"
#include "xformer/tensor.hh"

namespace hnlpu {

/** A rank-r adapter for one out x in projection. */
class LoraAdapter
{
  public:
    /** Zero-initialised adapter (delta is exactly zero, the standard
     *  LoRA starting point: B = 0). */
    LoraAdapter(std::size_t out_dim, std::size_t in_dim,
                std::size_t rank, double scale = 1.0);

    /** Random non-trivial adapter for tests/demos. */
    static LoraAdapter random(std::size_t out_dim, std::size_t in_dim,
                              std::size_t rank, std::uint64_t seed,
                              double scale = 1.0);

    /** The low-rank correction: scale * B (A x). */
    Vec delta(const Vec &x) const;

    /** y = frozen.forward(x, path) + delta(x). */
    Vec apply(const Linear &frozen, const Vec &x, ExecPath path,
              unsigned activation_bits = 8) const;

    std::size_t rank() const { return a_.rows(); }
    std::size_t outDim() const { return b_.rows(); }
    std::size_t inDim() const { return a_.cols(); }

    /** Side-channel parameter count (the ~1% budget check). */
    std::size_t paramCount() const;

    /** Mutable access for "field programming" the adapter. */
    Mat &aMatrix() { return a_; }
    Mat &bMatrix() { return b_; }

  private:
    Mat a_; //!< rank x in
    Mat b_; //!< out x rank
    double scale_;
};

/** Adapters for the attention projections of every layer. */
struct LoraSet
{
    std::vector<LoraAdapter> wq; //!< one per layer
    std::vector<LoraAdapter> wo; //!< one per layer

    /** Zero-initialised set for @p layers with given shapes. */
    static LoraSet zeros(std::size_t layers, std::size_t hidden,
                         std::size_t q_proj, std::size_t rank);

    /** Fraction of the frozen attention parameters the side channel
     *  adds (the paper budgets ~1%). */
    double overheadFraction(std::size_t hidden,
                            std::size_t q_proj) const;

    /** Random non-trivial set (one adapter pair per layer); the
     *  per-layer seeds are derived from @p seed so two sets with
     *  different seeds are distinct with overwhelming probability. */
    static LoraSet random(std::size_t layers, std::size_t hidden,
                          std::size_t q_proj, std::size_t rank,
                          std::uint64_t seed, double scale = 1.0);
};

/**
 * Tenant -> adapter map for multi-tenant serving (the paper's
 * amortization story: one immutable hardwired base, many per-tenant
 * side-channel overlays).  Adapters are borrowed and must outlive the
 * registry.  A null adapter is a legal registration -- that tenant
 * serves the base model.  Tenant 0 is always known: it is the default
 * tenant of every request that names none, and resolving it without an
 * explicit registration falls back to the caller-supplied default
 * adapter (the engine's setLora() state), so requests that name no
 * tenant serve whatever adapter Engine::setLora installed.
 */
class LoraRegistry
{
  public:
    /** Register (or replace) @p tenant's adapter; null = base model. */
    void registerTenant(std::size_t tenant, const LoraSet *adapter)
    {
        tenants_[tenant] = adapter;
    }

    /** True when @p tenant can be served (registered, or the default
     *  tenant 0). */
    bool knows(std::size_t tenant) const
    {
        return tenant == 0 || tenants_.count(tenant) != 0;
    }

    /**
     * The adapter @p tenant's requests run with.  An explicit
     * registration wins; the unregistered default tenant 0 falls back
     * to @p default_adapter.  Fatal on an unknown tenant -- front ends
     * must reject those at enqueue (RejectReason::UnknownTenant), never
     * reach resolution.
     */
    const LoraSet *adapterFor(std::size_t tenant,
                              const LoraSet *default_adapter) const;

    std::size_t tenantCount() const { return tenants_.size(); }

  private:
    std::map<std::size_t, const LoraSet *> tenants_;
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_LORA_HH
