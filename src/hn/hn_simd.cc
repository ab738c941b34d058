#include "hn/hn_simd.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"

// The AVX2 and AVX-512 builds of the dot loop exist only on x86
// GCC/Clang with the build-time gate on; everywhere else the Portable
// build is the only tier.
#if defined(HNLPU_SIMD_ENABLE) && HNLPU_SIMD_ENABLE &&                   \
    (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define HNLPU_SIMD_X86 1
#else
#define HNLPU_SIMD_X86 0
#endif

namespace hnlpu {

namespace {

/** Largest |2*w| of an FP4 (e2m1) weight: 2 * 6.0. */
constexpr std::uint64_t kMaxTwiceWeight = 12;

/**
 * True when no sum of @p n products of a 2*w code and a @p width-bit
 * value can leave the int32 range: 12 * 2^(width-1) * n < 2^31.
 */
bool
fitsInt32(unsigned width, std::size_t n)
{
    return std::uint64_t(n) * (kMaxTwiceWeight << (width - 1)) <
           (std::uint64_t(1) << 31);
}

/**
 * The dot loop every tier runs: the tier wrappers below inline it
 * under their own target attribute, and the compiler vectorises it for
 * that instruction set.  Acc is wide enough for the whole sum (see
 * fitsInt32), so the result is exact.
 */
template <class Acc>
[[gnu::always_inline]] inline void
dotBatch(const std::int8_t *__restrict row, std::size_t n,
         const std::int16_t *__restrict x, std::size_t batch,
         std::int64_t *__restrict out)
{
    for (std::size_t b = 0; b < batch; ++b) {
        const std::int16_t *__restrict col = x + b * n;
        Acc sum = 0;
        for (std::size_t i = 0; i < n; ++i)
            sum += Acc(row[i]) * Acc(col[i]);
        out[b] = sum;
    }
}

template <class Acc>
void
dotPortable(const std::int8_t *row, std::size_t n, const std::int16_t *x,
            std::size_t batch, std::int64_t *out)
{
    dotBatch<Acc>(row, n, x, batch, out);
}

#if HNLPU_SIMD_X86

template <class Acc>
__attribute__((target("avx2"))) void
dotAvx2(const std::int8_t *row, std::size_t n, const std::int16_t *x,
        std::size_t batch, std::int64_t *out)
{
    dotBatch<Acc>(row, n, x, batch, out);
}

template <class Acc>
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
dotAvx512(const std::int8_t *row, std::size_t n, const std::int16_t *x,
          std::size_t batch, std::int64_t *out)
{
    dotBatch<Acc>(row, n, x, batch, out);
}

#endif // HNLPU_SIMD_X86

using DotFn = void (*)(const std::int8_t *, std::size_t,
                       const std::int16_t *, std::size_t, std::int64_t *);

/** One tier: its name and its builds of the loop per accumulator. */
struct SimdTier
{
    HnSimdLevel level;
    const char *name;
    DotFn sum32;
    DotFn sum64;
};

/** The tiers compiled into this build, indexed by HnSimdLevel. */
constexpr SimdTier kTiers[] = {
    {HnSimdLevel::Portable, "portable", dotPortable<std::int32_t>,
     dotPortable<std::int64_t>},
#if HNLPU_SIMD_X86
    {HnSimdLevel::Avx2, "avx2", dotAvx2<std::int32_t>,
     dotAvx2<std::int64_t>},
    {HnSimdLevel::Avx512, "avx512", dotAvx512<std::int32_t>,
     dotAvx512<std::int64_t>},
#endif
};

bool
cpuSupports(HnSimdLevel level)
{
#if HNLPU_SIMD_X86
    __builtin_cpu_init();
    switch (level) {
    case HnSimdLevel::Avx512:
        return __builtin_cpu_supports("avx512bw") &&
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

} // namespace

HnSimdLevel
hnSimdLevel()
{
    // Relaxed is enough: the tier only changes while no kernel runs,
    // and the thread pool's job handoff orders the change before any
    // worker's read.
    return activeLevel().load(std::memory_order_relaxed);
}

const char *
hnSimdLevelName()
{
    return kTiers[static_cast<std::size_t>(hnSimdLevel())].name;
}

std::vector<HnSimdLevel>
hnSupportedSimdLevels()
{
    std::vector<HnSimdLevel> levels;
    for (const SimdTier &tier : kTiers) {
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
hnDotBatch(const std::int8_t *row, std::size_t n, const std::int16_t *x,
           std::size_t batch, unsigned width, std::int64_t *out)
{
    const SimdTier &tier = kTiers[static_cast<std::size_t>(hnSimdLevel())];
    (fitsInt32(width, n) ? tier.sum32 : tier.sum64)(row, n, x, batch, out);
}

} // namespace hnlpu
