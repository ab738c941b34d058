/**
 * @file
 * SIMD inner loop of the packed HN kernel (HnKernel::Simd).
 *
 * The packed kernel's hot loop is, per neuron row, a
 * (region x bit-plane x word) traversal of
 * popcount(plane_word & mask_word) for every activation column.  This
 * module computes the per-(region, column) weighted sums of that
 * traversal for up to kHnBatchChunk columns at once (a solo decode is
 * a batch of one) with:
 *
 *  - a vectorised AND+POPCNT body: AVX-512 VPOPCNTQ (8 words per
 *    instruction) or an AVX2 nibble-LUT popcount (Mula's algorithm, 4
 *    words per step), selected once at runtime via
 *    __builtin_cpu_supports behind the HNLPU_SIMD compile-time gate.
 *    The Portable tier has no body of its own: with it (always the
 *    case when HNLPU_SIMD=OFF or on non-x86 targets)
 *    HardwiredNeuron::computeSimdBatch runs computePackedBatch;
 *  - column groups: per region and per group of up to four columns,
 *    each mask vector is loaded once and ANDed into every column's
 *    plane, the per-bit popcounts stay in vector lanes and fold into
 *    per-column lane accumulators shifted by the plane's bit, and one
 *    horizontal reduction per (region, column) replaces one per
 *    (region, bit, column);
 *  - all-zero plane skipping: a bit plane that is zero in every column
 *    of a group (PackedPlanes::nonZeroPlaneMask, free at build time)
 *    is never loaded -- the bit-sparsity idea of Laconic /
 *    DynamicStripes applied to the host emulation;
 *  - cache blocking: the word dimension is processed in fixed tiles so
 *    one tile of every region's mask stripe plus the touched planes
 *    fits in L1 even for very wide rows, instead of streaming each
 *    full stripe per (region, bit) pair.
 *
 * Bit-exactness is structural, not approximate: every per-(region,
 * bit, tile) count is an exact integer, integer addition is
 * associative, and zero planes contribute exactly 0 -- so the region
 * sums (and with them the neuron output and HnActivity counters, which
 * count logical wires regardless of skips) are identical to
 * computeSerial/computePackedBatch.  tests/test_hn_kernel.cc pins the
 * kernels against each other on every tier the host supports
 * (ScopedHnSimdLevel), and tests/test_serving.cc pins batched columns
 * against solo GEMVs.
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
 * itself, so narrower rows take computePackedBatch's fused loop instead
 * (HardwiredNeuron::computeSimdBatch delegates).  The cutover only
 * selects between exact-integer loops, so results are bit-identical on
 * both sides.
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
 * lets an AVX-512 host execute the AVX2 body and the Portable
 * fallback too.
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
 * For @p cols activation columns in one traversal of the region masks,
 * region_sums[r * cols + c] receives sum over bit planes of
 * (+-2^bit) * popcount(planes[c]->plane(bit) & mask stripe of
 * regions[r]), using the active SIMD tier.  @p mask_words is the
 * neuron's packed mask buffer (stripes located by regions[r].wordOffset,
 * each @p words_per_plane words).  The caller
 * (HardwiredNeuron::computeSimdBatch) guarantees the batch contract:
 * @p cols in [1, kHnBatchChunk], every column of one width and
 * @p words_per_plane words.  The active tier must have a vector body
 * (not Portable) and @p words_per_plane must be at least
 * kHnSimdMinWords.  @p region_sums must hold region_count * cols
 * entries; it is fully overwritten.
 */
void hnRegionSumsBatch(const PackedPlanes *const *planes, std::size_t cols,
                       const std::uint64_t *mask_words,
                       const RegionMask *regions, std::size_t region_count,
                       std::size_t words_per_plane,
                       std::int64_t *region_sums);

} // namespace hnlpu

#endif // HNLPU_HN_HN_SIMD_HH
