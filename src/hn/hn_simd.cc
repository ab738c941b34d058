#include "hn/hn_simd.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/logging.hh"

// The vector bodies exist only on x86 GCC/Clang with the build-time
// gate on; everywhere else the Portable tier is the only one, and
// HnKernel::Simd runs HardwiredNeuron::computePackedBatch.
#if defined(HNLPU_SIMD_ENABLE) && HNLPU_SIMD_ENABLE &&                   \
    (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define HNLPU_SIMD_X86 1
#include <immintrin.h>
#else
#define HNLPU_SIMD_X86 0
#endif

namespace hnlpu {

namespace {

/**
 * Words per cache tile.  One 512-word tile is 4 KiB; a tile of the
 * plane, the current region's mask stripe, and the next stripe all fit
 * in L1 together, so the (region x bit) revisits of a tile hit cache
 * even when a full stripe would not.
 */
constexpr std::size_t kTileWords = 512;

/**
 * Columns per group of the batched body: each mask vector is loaded
 * once per group and ANDed into this many columns' planes.  Four keeps
 * the per-column count and region accumulators of the AVX2 body inside
 * its sixteen vector registers.
 */
constexpr std::size_t kGroupColumns = 4;

/** One column's plane base pointers, indexed by bit (width <= 63). */
using PlaneRow = const std::uint64_t *[63];

/**
 * One (tile, region, column group) step of the batched body: for each
 * column g of the group, adds to sums[g] the weighted popcount sum of
 * plane_ptr[g]'s planes against the @p len mask words at @p mask, over
 * the planes @p live selects.  @p tile is the word offset of the tile
 * in every plane (@p mask is already offset).
 */
using GroupSumsFn = void (*)(const PlaneRow *plane_ptr, std::size_t tile,
                             const std::uint64_t *mask, std::size_t len,
                             std::uint64_t live, unsigned width,
                             std::int64_t *sums);

/**
 * Traversal shared by the vector tiers: tiles, then regions, then
 * groups of up to kGroupColumns columns, each handed to the tier's
 * exact-width group body (groups[columns - 1]), so a ragged last group
 * does no padded work.  A plane is skipped for a group only when it is
 * all-zero in every column of the group; a plane that is zero in some
 * columns only popcounts to 0 there.  One indirect call per (tile,
 * region, group) is noise next to the group body's width x words
 * popcounts above the kHnSimdMinWords cutover.
 */
void
regionSumsBatchTiled(const GroupSumsFn *groups,
                     const PackedPlanes *const *planes, std::size_t cols,
                     const std::uint64_t *mask_words,
                     const RegionMask *regions, std::size_t region_count,
                     std::size_t words_per_plane, std::int64_t *region_sums)
{
    const unsigned width = planes[0]->width();
    PlaneRow plane_ptr[kHnBatchChunk];
    // Planes non-zero in any column of each group.
    std::uint64_t live[(kHnBatchChunk + kGroupColumns - 1) /
                       kGroupColumns] = {};
    for (std::size_t c = 0; c < cols; ++c) {
        for (unsigned bit = 0; bit < width; ++bit)
            plane_ptr[c][bit] = planes[c]->plane(bit);
        live[c / kGroupColumns] |= planes[c]->nonZeroPlaneMask();
    }

    std::fill_n(region_sums, region_count * cols, std::int64_t(0));

    for (std::size_t tile = 0; tile < words_per_plane;
         tile += kTileWords) {
        const std::size_t len =
            std::min(kTileWords, words_per_plane - tile);
        for (std::size_t r = 0; r < region_count; ++r) {
            const std::uint64_t *mask =
                mask_words + regions[r].wordOffset + tile;
            for (std::size_t c0 = 0; c0 < cols; c0 += kGroupColumns) {
                const std::size_t group =
                    std::min(kGroupColumns, cols - c0);
                groups[group - 1](plane_ptr + c0, tile, mask, len,
                                  live[c0 / kGroupColumns], width,
                                  region_sums + r * cols + c0);
            }
        }
    }
}

#if HNLPU_SIMD_X86

/**
 * Per-64-bit-lane popcounts of @p v: Mula's nibble-LUT algorithm.  The
 * four words are split into nibbles, PSHUFB maps each nibble to its
 * popcount, and PSADBW folds the 32 byte-counts into four 64-bit lanes
 * (whose per-lane sums are exact, so no overflow handling is needed at
 * any tile size).
 */
__attribute__((target("avx2"))) inline __m256i
popcountLanesAvx2(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_nibble = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibble);
    const __m256i bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                          _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/** Horizontal int64 sum of @p v. */
__attribute__((target("avx2"))) inline std::int64_t
reduceAddAvx2(__m256i v)
{
    const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
    return _mm_cvtsi128_si64(pair) + _mm_extract_epi64(pair, 1);
}

/**
 * AVX2 group body: four words per step, the ragged tail through a
 * VPMASKMOVQ load (masked lanes read as zero and never fault).  Lane
 * counts are shifted by the plane's bit and added (subtracted for the
 * sign plane) into per-column lane accumulators -- int64 lane
 * arithmetic, so the one horizontal sum per column at the end is the
 * exact region sum.
 */
template <std::size_t G>
__attribute__((target("avx2"))) void
groupSumsAvx2(const PlaneRow *plane_ptr, std::size_t tile,
              const std::uint64_t *mask, std::size_t len,
              std::uint64_t live, unsigned width, std::int64_t *sums)
{
    const std::size_t full = len & ~std::size_t(3);
    const __m256i tail = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(len - full)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i acc[G];
    for (std::size_t g = 0; g < G; ++g)
        acc[g] = _mm256_setzero_si256();
    for (; live != 0; live &= live - 1) {
        const unsigned bit = std::countr_zero(live);
        const std::uint64_t *p[G];
        __m256i count[G];
        for (std::size_t g = 0; g < G; ++g) {
            p[g] = plane_ptr[g][bit] + tile;
            count[g] = _mm256_setzero_si256();
        }
        for (std::size_t w = 0; w < full; w += 4) {
            const __m256i m = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(mask + w));
            for (std::size_t g = 0; g < G; ++g) {
                const __m256i v = _mm256_and_si256(
                    m, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i *>(p[g] + w)));
                count[g] = _mm256_add_epi64(count[g], popcountLanesAvx2(v));
            }
        }
        if (full < len) {
            const __m256i m = _mm256_maskload_epi64(
                reinterpret_cast<const long long *>(mask + full), tail);
            for (std::size_t g = 0; g < G; ++g) {
                const __m256i v = _mm256_and_si256(
                    m, _mm256_maskload_epi64(
                           reinterpret_cast<const long long *>(p[g] + full),
                           tail));
                count[g] = _mm256_add_epi64(count[g], popcountLanesAvx2(v));
            }
        }
        const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(bit));
        const bool sign_plane = bit + 1 == width;
        for (std::size_t g = 0; g < G; ++g) {
            const __m256i weighted = _mm256_sll_epi64(count[g], shift);
            acc[g] = sign_plane ? _mm256_sub_epi64(acc[g], weighted)
                                : _mm256_add_epi64(acc[g], weighted);
        }
    }
    for (std::size_t g = 0; g < G; ++g)
        sums[g] += reduceAddAvx2(acc[g]);
}

constexpr GroupSumsFn kAvx2Groups[kGroupColumns] = {
    groupSumsAvx2<1>, groupSumsAvx2<2>, groupSumsAvx2<3>,
    groupSumsAvx2<4>};

/*
 * GCC 12's unmasked AVX-512 extract, cast and shift intrinsics
 * (_mm512_reduce_add_epi64 among their users) pass an
 * _mm*_undefined_*() vector as their merge source, which it then
 * reports as -Wuninitialized.  The AVX-512 code below avoids them: the
 * reduction is written with vector extensions, which lower to the same
 * extract-and-add sequence, and the shift uses the zero-masked form
 * with an all-ones mask.
 */

/** Horizontal int64 sum of @p v (wrapping, as the lane adds are). */
__attribute__((target("avx512f"))) inline std::int64_t
reduceAddAvx512(__m512i v)
{
    using U64x8 = std::uint64_t __attribute__((vector_size(64)));
    using U64x4 = std::uint64_t __attribute__((vector_size(32)));
    using U64x2 = std::uint64_t __attribute__((vector_size(16)));
    const U64x8 lanes = (U64x8)v;
    const U64x4 half = __builtin_shufflevector(lanes, lanes, 0, 1, 2, 3) +
                       __builtin_shufflevector(lanes, lanes, 4, 5, 6, 7);
    const U64x2 pair = __builtin_shufflevector(half, half, 0, 1) +
                       __builtin_shufflevector(half, half, 2, 3);
    return static_cast<std::int64_t>(pair[0] + pair[1]);
}

/**
 * AVX-512 group body: one VPOPCNTQ per eight words per column, the
 * ragged tail through zero-masked loads.  Same lane accumulation as
 * groupSumsAvx2.
 */
template <std::size_t G>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq"))) void
groupSumsAvx512(const PlaneRow *plane_ptr, std::size_t tile,
                const std::uint64_t *mask, std::size_t len,
                std::uint64_t live, unsigned width, std::int64_t *sums)
{
    const std::size_t full = len & ~std::size_t(7);
    const __mmask8 tail = static_cast<__mmask8>((1u << (len - full)) - 1u);
    __m512i acc[G];
    for (std::size_t g = 0; g < G; ++g)
        acc[g] = _mm512_setzero_si512();
    for (; live != 0; live &= live - 1) {
        const unsigned bit = std::countr_zero(live);
        const std::uint64_t *p[G];
        __m512i count[G];
        for (std::size_t g = 0; g < G; ++g) {
            p[g] = plane_ptr[g][bit] + tile;
            count[g] = _mm512_setzero_si512();
        }
        for (std::size_t w = 0; w < full; w += 8) {
            const __m512i m = _mm512_loadu_si512(mask + w);
            for (std::size_t g = 0; g < G; ++g) {
                const __m512i v =
                    _mm512_and_si512(m, _mm512_loadu_si512(p[g] + w));
                count[g] =
                    _mm512_add_epi64(count[g], _mm512_popcnt_epi64(v));
            }
        }
        if (tail != 0) {
            const __m512i m = _mm512_maskz_loadu_epi64(tail, mask + full);
            for (std::size_t g = 0; g < G; ++g) {
                const __m512i v = _mm512_and_si512(
                    m, _mm512_maskz_loadu_epi64(tail, p[g] + full));
                count[g] =
                    _mm512_add_epi64(count[g], _mm512_popcnt_epi64(v));
            }
        }
        const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(bit));
        const bool sign_plane = bit + 1 == width;
        for (std::size_t g = 0; g < G; ++g) {
            const __m512i weighted =
                _mm512_maskz_sll_epi64(0xff, count[g], shift);
            acc[g] = sign_plane ? _mm512_sub_epi64(acc[g], weighted)
                                : _mm512_add_epi64(acc[g], weighted);
        }
    }
    for (std::size_t g = 0; g < G; ++g)
        sums[g] += reduceAddAvx512(acc[g]);
}

constexpr GroupSumsFn kAvx512Groups[kGroupColumns] = {
    groupSumsAvx512<1>, groupSumsAvx512<2>, groupSumsAvx512<3>,
    groupSumsAvx512<4>};

#endif // HNLPU_SIMD_X86

struct SimdDispatch
{
    /** Group bodies, [columns - 1]; null for the Portable tier. */
    const GroupSumsFn *groups;
    HnSimdLevel level;
    const char *name;
};

/** The tiers compiled into this build, indexed by HnSimdLevel. */
constexpr SimdDispatch kTiers[] = {
    {nullptr, HnSimdLevel::Portable, "portable"},
#if HNLPU_SIMD_X86
    {kAvx2Groups, HnSimdLevel::Avx2, "avx2"},
    {kAvx512Groups, HnSimdLevel::Avx512, "avx512"},
#endif
};

bool
cpuSupports(HnSimdLevel level)
{
#if HNLPU_SIMD_X86
    __builtin_cpu_init();
    switch (level) {
    case HnSimdLevel::Avx512:
        return __builtin_cpu_supports("avx512vpopcntdq") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512f");
    case HnSimdLevel::Avx2:
        return __builtin_cpu_supports("avx2");
    case HnSimdLevel::Portable:
        return true;
    }
#endif
    return level == HnSimdLevel::Portable;
}

std::atomic<HnSimdLevel> &
activeLevel()
{
    // Resolved once, first use, to the best tier the CPU supports; only
    // ScopedHnSimdLevel moves it afterwards.
    static std::atomic<HnSimdLevel> level{hnSupportedSimdLevels().back()};
    return level;
}

const SimdDispatch &
dispatch()
{
    // Relaxed is enough: the tier only changes while no kernel runs,
    // and the thread pool's job handoff orders the change before any
    // worker's read.
    return kTiers[static_cast<std::size_t>(
        activeLevel().load(std::memory_order_relaxed))];
}

} // namespace

HnSimdLevel
hnSimdLevel()
{
    return dispatch().level;
}

const char *
hnSimdLevelName()
{
    return dispatch().name;
}

std::vector<HnSimdLevel>
hnSupportedSimdLevels()
{
    std::vector<HnSimdLevel> levels;
    for (const SimdDispatch &tier : kTiers) {
        if (cpuSupports(tier.level))
            levels.push_back(tier.level);
    }
    return levels;
}

ScopedHnSimdLevel::ScopedHnSimdLevel(HnSimdLevel level)
{
    const std::vector<HnSimdLevel> levels = hnSupportedSimdLevels();
    hnlpu_assert(std::find(levels.begin(), levels.end(), level) !=
                     levels.end(),
                 "SIMD tier ", static_cast<int>(level),
                 " is not supported by this build and CPU");
    previous_ = activeLevel().exchange(level, std::memory_order_relaxed);
}

ScopedHnSimdLevel::~ScopedHnSimdLevel()
{
    activeLevel().store(previous_, std::memory_order_relaxed);
}

void
hnRegionSumsBatch(const PackedPlanes *const *planes, std::size_t cols,
                  const std::uint64_t *mask_words,
                  const RegionMask *regions, std::size_t region_count,
                  std::size_t words_per_plane, std::int64_t *region_sums)
{
    // HardwiredNeuron::computeSimdBatch checks the batch and takes
    // narrow rows and the Portable tier to computePackedBatch itself.
    const GroupSumsFn *groups = dispatch().groups;
    hnlpu_assert(words_per_plane >= kHnSimdMinWords && groups != nullptr,
                 "hnRegionSumsBatch needs a vector tier and at least ",
                 kHnSimdMinWords, " words per plane");
    regionSumsBatchTiled(groups, planes, cols, mask_words, regions,
                         region_count, words_per_plane, region_sums);
}

} // namespace hnlpu
