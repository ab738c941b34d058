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
 *    word), compile each region's input list into mask words at
 *    programming time, and reduce each (plane, region) pair with
 *    popcount(plane & mask) for every column in one mask traversal;
 *  - Simd: the row's exact integer directly -- narrow each column to
 *    int16 once per GEMM and take a plain dot product with the array's
 *    int8 image of 2*w, built at programming time; one C++ loop,
 *    compiled per instruction-set tier and dispatched at runtime
 *    (src/hn/hn_simd.{hh,cc}).  Columns wider than 16 bits run Packed.
 *
 * All kernels produce identical integer outputs and identical
 * HnActivity counters (every kernel accounts the logical wires of the
 * modelled fabric, not host work); tests/test_hn_kernel.cc pins this.
 * Packed is the engine default.
 *
 * HnScratch owns the per-column buffers (quantised columns, their
 * CachedPlanes or narrowed copies, staged outputs) of one in-flight
 * GEMM or MoE expert stage.  HnScratchArena recycles scratches across
 * calls and across concurrent callers through a lock-free slot array
 * -- acquire/release are a single atomic exchange on the caller's
 * preferred slot in steady state, so leasing never serialises
 * concurrent GEMMs the way the old mutex-guarded freelist did.  The
 * arena hands each caller an exclusive scratch; the PackedPlanes or
 * narrowed columns built into it are then shared strictly read-only by
 * the row workers of that one GEMM or stage.
 */

#ifndef HNLPU_HN_HN_KERNEL_HH
#define HNLPU_HN_HN_KERNEL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "arith/bitserial.hh"
#include "arith/quantize.hh"

namespace hnlpu {

/** Which GEMV kernel the hardwired path executes. */
enum class HnKernel { Scalar, Packed, Simd };

/**
 * A PackedPlanes plus the key it was built from, so rebuilding with an
 * unchanged input column is a comparison instead of a serialisation.
 * The engine feeds the same activation vector to several projections
 * back to back (x into wq/wk/wv), and thread-affine scratch reuse
 * hands the same scratch back to the same caller -- together those
 * turn the repeated plane builds into cache hits.
 *
 * ensure() is exception-safe by ordering: the valid flag drops before
 * the build and is restored only after both the planes and the key are
 * consistent, so a throwing build can never leave a stale key claiming
 * to describe fresh planes.
 */
class CachedPlanes
{
  public:
    /**
     * Return planes built from (values, width), rebuilding only when
     * they differ from the previous build.  The O(n) key comparison is
     * ~width times cheaper than the serialisation it avoids.
     */
    const PackedPlanes &ensure(const std::vector<std::int64_t> &values,
                               unsigned width)
    {
        if (valid_ && keyWidth_ == width && key_ == values)
            return planes_;
        valid_ = false;
        planes_.build(values, width);
        key_ = values;
        keyWidth_ = width;
        valid_ = true;
        ++buildCount_;
        return planes_;
    }

    /** Serialisations actually performed (cache-miss count; test hook). */
    std::size_t buildCount() const { return buildCount_; }

    /** Drop the cached key (the next ensure() rebuilds). */
    void invalidate() { valid_ = false; }

  private:
    PackedPlanes planes_;
    std::vector<std::int64_t> key_;
    unsigned keyWidth_ = 0;
    bool valid_ = false;
    std::size_t buildCount_ = 0;
};

/**
 * Reusable working memory of one in-flight GEMM or multi-GEMM stage
 * (exclusively owned while leased).  Every per-column buffer is
 * indexed by a column slot; all of them grow on demand and never
 * shrink, so a recycled scratch keeps its buffers across calls and
 * steady-state decode allocates neither plane words, narrowed or
 * quantised columns nor staged outputs.
 */
struct HnScratch
{
    /**
     * One CachedPlanes per column slot, so a slot whose column
     * repeats (x into wq/wk/wv) skips the serialisation.
     */
    std::vector<CachedPlanes> batchPlanes;
    /** The quantised activation column of each slot. */
    std::vector<QuantizedVector> quantized;
    /** Each slot's planes, in the pointer-array form the kernels read. */
    std::vector<const PackedPlanes *> planes;
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

    /** Grow every per-slot buffer to at least @p slots slots. */
    void ensureSlots(std::size_t slots);
};

/**
 * Lock-free scratch recycler: a fixed array of atomic slots, each
 * holding one parked scratch (or null).  acquire() claims a parked
 * scratch with an atomic exchange (or allocates on a miss); release()
 * parks it back with a compare-exchange (or frees it if every slot is
 * full, which cannot happen in steady state with <= kSlots concurrent
 * leases).  There is no ABA hazard: slots only ever swap with null,
 * never with another live pointer.
 *
 * Each thread probes from its own home slot, so a thread that runs
 * back-to-back GEMVs gets the same scratch back -- which is what makes
 * the CachedPlanes key comparison hit when the input column repeats.
 */
class HnScratchArena
{
  public:
    /** Parked-scratch capacity; beyond it release() frees instead. */
    static constexpr std::size_t kSlots = 64;

    HnScratchArena() = default;
    ~HnScratchArena();
    HnScratchArena(const HnScratchArena &) = delete;
    HnScratchArena &operator=(const HnScratchArena &) = delete;

    std::unique_ptr<HnScratch> acquire();
    void release(std::unique_ptr<HnScratch> scratch);

    /** Scratches currently parked in the slot array (test hook). */
    std::size_t idleCount() const;

  private:
    std::array<std::atomic<HnScratch *>, kSlots> slots_{};
};

/**
 * RAII lease: takes a scratch from @p arena (returned on destruction,
 * including during stack unwinding -- a throwing plane build cannot
 * leak the scratch out of the arena), or owns a private one when
 * @p arena is null so callers without an engine context still work.
 */
class HnScratchLease
{
  public:
    explicit HnScratchLease(HnScratchArena *arena);
    ~HnScratchLease();
    HnScratchLease(const HnScratchLease &) = delete;
    HnScratchLease &operator=(const HnScratchLease &) = delete;

    HnScratch &get() { return *scratch_; }

  private:
    HnScratchArena *arena_;
    std::unique_ptr<HnScratch> scratch_;
};

} // namespace hnlpu

#endif // HNLPU_HN_HN_KERNEL_HH
