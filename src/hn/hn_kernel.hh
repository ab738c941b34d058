/**
 * @file
 * Kernel selection and scratch memory for HN array GEMM.
 *
 * The HN array has three bit-exact host kernels:
 *
 *  - Scalar: the original functional model -- per row, re-serialise the
 *    activation vector into std::vector<bool> planes and walk each FP4
 *    region's input list element by element (one emulated wire at a
 *    time);
 *  - Packed: the word-parallel model -- serialise each activation
 *    column ONCE per GEMM into PackedPlanes (64 lanes per uint64_t
 *    word) and reduce each (plane, region) pair with
 *    popcount(plane & mask) against the row's mask stripes, compiled
 *    at programming time, for every column in one mask traversal;
 *  - Simd: the row's exact integer directly -- narrow each column to
 *    int16 once per GEMM and take a plain dot product with the array's
 *    int8 2*w image, the wiring every kernel's row reads; one C++ loop,
 *    compiled per instruction-set tier and dispatched at runtime
 *    (src/hn/hn_simd.{hh,cc}).  Columns wider than 16 bits run Packed.
 *
 * All kernels produce identical integer outputs and identical
 * HnActivity counters (every kernel accounts the logical wires of the
 * modelled fabric, not host work); tests/test_hn_kernel.cc pins this.
 * Packed is the engine default.
 *
 * HnScratch owns the per-column buffers (quantised columns, their
 * PackedPlanes or narrowed copies, staged outputs) of one in-flight
 * GEMM or MoE expert stage.  Each Engine and DistributedEngine owns
 * one, and every GEMM it runs leases it in turn (HnScratchLease), so
 * steady-state decode reuses the same buffers call after call.
 * Projections that read the same input (wq/wk/wv, an expert's up and
 * gate) share one preparation of it (Linear::forwardFused), the way
 * the fabric serialises an activation once and wires its bit planes
 * to every neuron that reads it.  The PackedPlanes or narrowed columns
 * built into the scratch are shared strictly read-only by the row
 * workers of that one GEMM or stage.
 */

#ifndef HNLPU_HN_HN_KERNEL_HH
#define HNLPU_HN_HN_KERNEL_HH

#include <cstdint>
#include <vector>

#include "arith/bitserial.hh"
#include "arith/quantize.hh"

namespace hnlpu {

/** Which GEMV kernel the hardwired path executes. */
enum class HnKernel { Scalar, Packed, Simd };

/**
 * Reusable working memory of one in-flight GEMM or multi-GEMM stage
 * (exclusively owned while leased).  Every per-column buffer is
 * indexed by a column slot; all of them grow on demand and never
 * shrink, so a reused scratch keeps its buffers across calls and
 * steady-state decode allocates neither plane words, narrowed or
 * quantised columns nor staged outputs.
 */
struct HnScratch
{
    /** The quantised activation column of each slot. */
    std::vector<QuantizedVector> quantized;
    /** Packed kernel: each slot's bit planes. */
    std::vector<PackedPlanes> planes;
    /** Each slot's real-valued input column (caller-filled). */
    std::vector<const double *> columns;
    /** Real-valued staging for the GEMM outputs of the lease holder. */
    std::vector<double> values;
    /**
     * Simd kernel: every slot's quantised column narrowed to int16,
     * slot b at [b * dim].  Grown by HnArray::prepareColumns, never
     * shrunk.
     */
    std::vector<std::int16_t> narrowed;

    /** Set while an HnScratchLease holds this scratch. */
    bool leased = false;

    /** Grow every per-slot buffer to at least @p slots slots. */
    void ensureSlots(std::size_t slots);
};

/**
 * RAII lease of @p scratch for one GEMM or stage, or of a private
 * scratch when @p scratch is null so callers without an engine context
 * still work.  Leases do not nest: a second lease of a scratch that is
 * already leased would overwrite columns the first one is still
 * reading, so it fails an assertion instead.
 */
class HnScratchLease
{
  public:
    explicit HnScratchLease(HnScratch *scratch);
    ~HnScratchLease() { scratch_->leased = false; }
    HnScratchLease(const HnScratchLease &) = delete;
    HnScratchLease &operator=(const HnScratchLease &) = delete;

    HnScratch &get() { return *scratch_; }

  private:
    HnScratch own_;
    HnScratch *scratch_;
};

} // namespace hnlpu

#endif // HNLPU_HN_HN_KERNEL_HH
