/**
 * @file
 * Exact integer dot-product body of the HN Simd kernel (HnKernel::Simd).
 *
 * A Hardwired-Neuron row returns sum_i (2*w_i) * x_i as an exact
 * integer (hn_neuron.hh).  The Simd kernel computes that integer
 * directly instead of emulating the popcount fabric:
 *
 *  - HnArray keeps a row-major int8 image of 2*w (FP4 e2m1, so every
 *    entry lies in [-12, 12]), built once when the array is programmed:
 *    like the metal wires, it never changes afterwards;
 *  - HnArray::prepareColumns narrows each quantised activation column
 *    of up to kHnDotMaxWidth bits to int16; wider columns run the
 *    Packed kernel instead;
 *  - each row is one multiply-accumulate loop per column,
 *    hnDotBatch.
 *
 * Bit-exactness is structural: integer addition is associative, so any
 * evaluation order yields the same integer as the bit-serial
 * reduction, provided the accumulator cannot overflow.  The loop
 * accumulates in int32 when 12 * 2^(width-1) * n < 2^31 (no sum of n
 * products can leave the int32 range) and in int64 otherwise.
 *
 * The one loop is compiled once per instruction-set tier, each copy
 * under its own target attribute, and the tier is chosen once at
 * runtime via __builtin_cpu_supports: AVX-512BW, AVX2, and Portable,
 * the baseline-ISA build.  With HNLPU_SIMD=OFF, or off x86, Portable
 * is the only tier.  (An AVX-512 VNNI build was measured too: GCC
 * turns the reduction into one VPDPWSSD dependency chain, which ran
 * ~10% slower than VPMADDWD + VPADDD, so there is none.)  Every tier
 * runs the same source, so they differ only in speed;
 * tests/test_hn_kernel.cc pins each supported tier against the Scalar
 * and Packed kernels (ScopedHnSimdLevel).
 */

#ifndef HNLPU_HN_HN_SIMD_HH
#define HNLPU_HN_HN_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hnlpu {

/** Instruction-set tier the Simd kernel resolved to (once, at startup). */
enum class HnSimdLevel { Portable, Avx2, Avx512 };

/**
 * Widest activation the dot body takes (int16 columns).  Simd GEMMs on
 * wider activations run the Packed kernel.  Narrower activations are
 * int16 too: GCC vectorises int8 x int16 into multiply-add pairs
 * (VPMADDWD), but int8 x int8 into 16-bit multiplies plus widening
 * adds, which measured slower.
 */
inline constexpr unsigned kHnDotMaxWidth = 16;

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
 * lets an AVX-512 host execute the AVX2 and Portable builds too.
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
 * out[b] = sum_i row[i] * x[b * n + i] over i in [0, n), for every
 * column b in [0, batch), exactly, on the active tier.  @p row holds
 * 2*w codes in [-12, 12]; the columns hold @p width-bit two's
 * complement values, width in [2, kHnDotMaxWidth].
 */
void hnDotBatch(const std::int8_t *row, std::size_t n,
                const std::int16_t *x, std::size_t batch, unsigned width,
                std::int64_t *out);

} // namespace hnlpu

#endif // HNLPU_HN_HN_SIMD_HH
