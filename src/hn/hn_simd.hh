/**
 * @file
 * SIMD inner loop of the packed HN kernel (HnKernel::Simd).
 *
 * The packed kernel's hot loop is, per neuron row, a
 * (region x bit-plane x word) traversal of
 * popcount(plane_word & mask_word).  This module computes the
 * per-region weighted sums of that traversal with:
 *
 *  - a vectorised AND+POPCNT body: AVX-512 VPOPCNTQ (8 words per
 *    instruction) or an AVX2 nibble-LUT popcount (Mula's algorithm, 4
 *    words per step), selected once at runtime via
 *    __builtin_cpu_supports behind the HNLPU_SIMD compile-time gate; a
 *    portable std::popcount loop is always compiled and is the only
 *    body when HNLPU_SIMD=OFF or on non-x86 targets;
 *  - all-zero skipping at two granularities: whole bit planes
 *    (PackedPlanes::nonZeroPlaneMask, free at build time) and, in the
 *    vector bodies, all-zero plane-word blocks (one vector test before
 *    the AND+POPCNT) -- the bit-sparsity idea of Laconic /
 *    DynamicStripes applied to the host emulation;
 *  - cache blocking: the word dimension is processed in fixed tiles so
 *    one tile of every region's mask stripe plus the touched planes
 *    fits in L1 even for very wide rows, instead of streaming each
 *    full stripe per (region, bit) pair.
 *
 *  - a multi-column body for the batched GEMM (hnRegionSumsBatch):
 *    per region and per group of up to four columns, each mask vector
 *    is loaded once and ANDed into every column's plane, the per-bit
 *    popcounts stay in vector lanes and fold into per-column lane
 *    accumulators shifted by the plane's bit, and one horizontal
 *    reduction per (region, column) replaces one per (region, bit,
 *    column).
 *
 * Bit-exactness is structural, not approximate: every per-(region,
 * bit, tile) count is an exact integer, integer addition is
 * associative, and zero planes/words contribute exactly 0 -- so the
 * region sums (and with them the neuron output and HnActivity
 * counters, which count logical wires regardless of skips) are
 * identical to computeSerial/computePacked.  tests/test_hn_kernel.cc
 * pins all three kernels against each other on every tier the host
 * supports (ScopedHnSimdLevel), and tests/test_serving.cc pins the
 * batched body against per-column GEMVs.
 */

#ifndef HNLPU_HN_HN_SIMD_HH
#define HNLPU_HN_HN_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arith/bitserial.hh"
#include "hn/hn_neuron.hh"

namespace hnlpu {

/** Instruction-set tier the Simd kernel resolved to (once, at startup). */
enum class HnSimdLevel { Portable, Avx2, Avx512 };

/**
 * Minimum words per plane before the vector bodies pay off.  Each tile
 * call costs dispatch, tail masking and a horizontal reduction; below
 * ~two 512-bit iterations that fixed cost exceeds the popcount work
 * itself, so narrower rows take the Packed kernel's fused loop instead
 * (HardwiredNeuron::computeSimd / computeSimdBatch delegate,
 * hnRegionSums / hnRegionSumsBatch run their portable loops).  The
 * cutover only selects between exact-integer
 * loops, so results are bit-identical on both sides.
 */
inline constexpr std::size_t kHnSimdMinWords = 16;

/**
 * The active tier: the best supported tier under the HNLPU_SIMD gate,
 * unless a ScopedHnSimdLevel is forcing a lower one.
 */
HnSimdLevel hnSimdLevel();

/** Human-readable name of the active tier (bench/report labels). */
const char *hnSimdLevelName();

/**
 * Every tier this build can run on this CPU, lowest first (Portable is
 * always present).  Tests sweep the kernels over it.
 */
std::vector<HnSimdLevel> hnSupportedSimdLevels();

/**
 * Test hook: force the Simd kernel onto @p level, which must be in
 * hnSupportedSimdLevels(), for this object's lifetime; the previous
 * tier is restored on destruction.  The tier is process-wide, so only
 * construct one while no kernel is running on another thread.  This
 * lets an AVX-512 host execute the AVX2 and portable bodies too.
 */
class ScopedHnSimdLevel
{
  public:
    explicit ScopedHnSimdLevel(HnSimdLevel level);
    ~ScopedHnSimdLevel();

    ScopedHnSimdLevel(const ScopedHnSimdLevel &) = delete;
    ScopedHnSimdLevel &operator=(const ScopedHnSimdLevel &) = delete;

  private:
    HnSimdLevel previous_;
};

/**
 * Compute region_sums[r] = sum over bit planes of
 * (+-2^bit) * popcount(plane(bit) & mask stripe of regions[r]) for
 * every region, using the active SIMD tier.  Rows too narrow to
 * amortise the vector bodies' per-call overhead run the portable loop
 * regardless of tier (same exact integer sums, so still bit-identical).
 * @p mask_words is the
 * neuron's packed mask buffer (stripes located by
 * regions[r].wordOffset, each @p words_per_plane words, which must
 * equal planes.wordsPerPlane()).  @p region_sums must hold
 * @p region_count entries; it is fully overwritten.
 */
void hnRegionSums(const PackedPlanes &planes,
                  const std::uint64_t *mask_words,
                  const RegionMask *regions, std::size_t region_count,
                  std::size_t words_per_plane,
                  std::int64_t *region_sums);

/**
 * hnRegionSums for @p cols activation columns in one traversal of the
 * region masks: region_sums[r * cols + c] receives column c's sum for
 * regions[r], exactly the value hnRegionSums(*planes[c], ...) computes.
 * All planes must share one width and @p words_per_plane; @p cols must
 * be in [1, kHnBatchChunk].  Same tier dispatch and kHnSimdMinWords
 * cutover as hnRegionSums.  @p region_sums must hold
 * region_count * cols entries; it is fully overwritten.
 */
void hnRegionSumsBatch(const PackedPlanes *const *planes, std::size_t cols,
                       const std::uint64_t *mask_words,
                       const RegionMask *regions, std::size_t region_count,
                       std::size_t words_per_plane,
                       std::int64_t *region_sums);

} // namespace hnlpu

#endif // HNLPU_HN_HN_SIMD_HH
