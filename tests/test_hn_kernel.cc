/**
 * @file
 * Bit-exactness sweep of the Packed (word-parallel popcount) and Simd
 * (int8 2*w image dot product) HN GEMM kernels against the Scalar
 * (per-wire emulation) kernel: outputs AND HnActivity counters must be
 * identical across activation widths (2-16 on the dot body, wider ones
 * on its Packed fallback), ragged (cols % 64 != 0) shapes, batches
 * across kHnBatchChunk, all-zero / sparse activations, dead-row masks,
 * stuck-at faulted weights, thread counts and sums past the int32
 * range.  Also covers the PackedPlanes serializer, the scratch lease,
 * projections fused off one column preparation (Linear::forwardFused)
 * against separate ones, and end-to-end engine equality under
 * ExecOptions::kernel.  Every Simd check runs
 * once per SIMD tier the host supports (ScopedHnSimdLevel), so an
 * AVX-512 host executes the AVX2 and Portable builds of the dot loop
 * too.  Single-column Packed checks call the batch kernel with one
 * column: a solo evaluation is a batch of one.
 *
 * Registered under ctest label `kernel`; scripts/tier1.sh runs it, like
 * every test, under ThreadSanitizer to prove the per-GEMM columns are
 * shared strictly read-only across row workers, and with
 * -DHNLPU_SIMD=OFF, where the Portable build is the only tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fault/fault_plan.hh"
#include "fault/model_faults.hh"
#include "hn/hn_array.hh"
#include "hn/hn_kernel.hh"
#include "hn/hn_simd.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/linear.hh"
#include "xformer/sampler.hh"

namespace hnlpu {
namespace {

SeaOfNeuronsTemplate
makeTemplate(std::size_t inputs)
{
    SeaOfNeuronsTemplate tmpl;
    tmpl.inputCount = inputs;
    tmpl.portsPerSlice = 16;
    tmpl.slackFactor = 4.0;
    return tmpl;
}

std::vector<std::int64_t>
randomActivations(std::size_t count, unsigned width, std::uint64_t seed)
{
    Rng rng(seed);
    const std::int64_t hi = (std::int64_t(1) << (width - 1)) - 1;
    const std::int64_t lo = -hi - 1;
    std::vector<std::int64_t> acts(count);
    for (auto &a : acts)
        a = rng.uniformInt(lo, hi);
    return acts;
}

void
expectActivityEq(const HnActivity &a, const HnActivity &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.popcountBitOps, b.popcountBitOps);
    EXPECT_EQ(a.multiplyOps, b.multiplyOps);
    EXPECT_EQ(a.treeAddOps, b.treeAddOps);
}

/** Run @p body once per SIMD tier this build and CPU can execute. */
template <class Body>
void
forEachSimdTier(Body body)
{
    for (HnSimdLevel level : hnSupportedSimdLevels()) {
        ScopedHnSimdLevel force(level);
        SCOPED_TRACE(hnSimdLevelName());
        body();
    }
}

/** computePackedBatch of the single column @p planes. */
std::int64_t
packedOne(const HardwiredNeuron &neuron, const PackedPlanes &planes,
          HnActivity *activity)
{
    std::int64_t out = 0;
    neuron.computePackedBatch(&planes, 1, &out, activity);
    return out;
}

// -- SIMD tier override ---------------------------------------------------

TEST(SimdTier, ScopedLevelForcesEverySupportedTierAndRestores)
{
    const HnSimdLevel best = hnSimdLevel();
    const auto levels = hnSupportedSimdLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), HnSimdLevel::Portable);
    // Nothing else is forcing a tier, so the active one is the best.
    EXPECT_EQ(levels.back(), best);
    for (HnSimdLevel level : levels) {
        {
            ScopedHnSimdLevel force(level);
            EXPECT_EQ(hnSimdLevel(), level);
        }
        EXPECT_EQ(hnSimdLevel(), best);
    }
    for (HnSimdLevel level : {HnSimdLevel::Portable, HnSimdLevel::Avx2,
                              HnSimdLevel::Avx512}) {
        if (std::find(levels.begin(), levels.end(), level) ==
            levels.end()) {
            EXPECT_DEATH(ScopedHnSimdLevel force(level), "not supported");
        }
    }
}

// -- PackedPlanes vs BitSerializer ----------------------------------------

TEST(PackedPlanes, MatchesBitSerializerBitForBit)
{
    for (std::size_t lanes : {1u, 63u, 64u, 65u, 130u}) {
        for (unsigned width : {2u, 4u, 8u, 16u}) {
            const auto values =
                randomActivations(lanes, width, 90 + lanes + width);
            BitSerializer serializer(values, width);
            PackedPlanes planes;
            planes.build(values, width);
            ASSERT_EQ(planes.laneCount(), lanes);
            ASSERT_EQ(planes.wordsPerPlane(), (lanes + 63) / 64);
            for (unsigned bit = 0; bit < width; ++bit) {
                const auto reference = serializer.plane(bit);
                const std::uint64_t *words = planes.plane(bit);
                EXPECT_EQ(planes.isSignPlane(bit),
                          serializer.isSignPlane(bit));
                for (std::size_t i = 0; i < lanes; ++i) {
                    const bool packed_bit =
                        (words[i / 64] >> (i % 64)) & 1;
                    ASSERT_EQ(packed_bit, bool(reference[i]))
                        << "lanes " << lanes << " width " << width
                        << " bit " << bit << " lane " << i;
                }
                // Tail lanes beyond laneCount() must be zero so mask
                // AND-popcounts never see ghost wires.
                for (std::size_t i = lanes;
                     i < planes.wordsPerPlane() * 64; ++i) {
                    ASSERT_EQ((words[i / 64] >> (i % 64)) & 1, 0u);
                }
            }
        }
    }
}

TEST(PackedPlanes, RebuildReusesGeometryAndRejectsOverflow)
{
    PackedPlanes planes;
    planes.build({1, -2, 3}, 4);
    EXPECT_EQ(planes.width(), 4u);
    planes.build({7, -8}, 4); // shrink in place
    EXPECT_EQ(planes.laneCount(), 2u);
    EXPECT_DEATH(planes.build({128}, 8), "does not fit");
}

// -- neuron- and array-level bit-exactness --------------------------------

TEST(PackedKernel, NeuronMatchesSerialAcrossWidths)
{
    const std::size_t cols = 70; // deliberately not a multiple of 64
    const auto tmpl = makeTemplate(cols);
    const auto weights = syntheticFp4Weights(cols, 17);
    const HnArray array(tmpl, weights, 1, cols);
    const HardwiredNeuron neuron = array.neuron(0);

    for (unsigned width : {4u, 8u, 16u}) {
        const auto acts = randomActivations(cols, width, width);
        HnActivity serial_act, packed_act;
        const std::int64_t serial =
            neuron.computeSerial(acts, width, &serial_act);
        PackedPlanes planes;
        planes.build(acts, width);
        const std::int64_t packed = packedOne(neuron, planes, &packed_act);
        EXPECT_EQ(packed, serial) << "width " << width;
        EXPECT_EQ(packed, neuron.computeReference(acts));
        expectActivityEq(packed_act, serial_act);
    }
}

TEST(SimdKernel, AllZeroAndSparseHighPlanesStayBitExact)
{
    // All-zero activations and sparse small positive ones (long zero
    // runs, every plane above bit 1 empty) must be bit-exact against
    // Scalar, counters included: the modelled fabric clocks every wire
    // whatever the data.
    for (std::size_t cols : {190u, 1090u}) {
        const std::size_t rows = 4;
        const HnArray array(makeTemplate(cols),
                            syntheticFp4Weights(rows * cols, 31), rows,
                            cols);
        const std::vector<std::int64_t> zeros(cols, 0);
        std::vector<std::int64_t> sparse(cols, 0);
        for (std::size_t i = 0; i < cols; i += 7)
            sparse[i] = std::int64_t(1 + (i % 3)); // 1..3: planes 0-1

        for (const auto &acts : {zeros, sparse}) {
            for (unsigned width : {4u, 8u, 16u}) {
                HnActivity scalar_act;
                const auto scalar = array.gemvSerial(
                    acts, width, &scalar_act, nullptr, HnKernel::Scalar);
                EXPECT_EQ(scalar, array.gemvReference(acts));
                forEachSimdTier([&] {
                    HnActivity simd_act;
                    EXPECT_EQ(array.gemvSerial(acts, width, &simd_act,
                                               nullptr, HnKernel::Simd),
                              scalar)
                        << "cols " << cols << " width " << width;
                    expectActivityEq(simd_act, scalar_act);
                });
            }
        }
    }
}

TEST(SimdKernel, SweepMatchesScalarAndPackedOnEveryTier)
{
    // Widths 2-16 run the dot body; 17 and 24 take its Packed
    // fallback.  No column count is a multiple of 64 but one, and
    // 1090 is wider than a cache line of int8 weights many times
    // over.  Batches 1-9 cross kHnBatchChunk (8), the Packed chunk
    // width; every batch is a prefix of the same nine columns, each
    // scalar-evaluated alone, so batched == solo is checked too.  The
    // pool is forced past the hardware cap so row chunks really run
    // concurrently on the shared, read-only columns.
    std::vector<unsigned> widths;
    for (unsigned width = 2; width <= kHnDotMaxWidth; ++width)
        widths.push_back(width);
    widths.push_back(17);
    widths.push_back(24);
    constexpr std::size_t kColumns = 9;
    const std::size_t rows = 12;
    const std::vector<std::uint32_t> dead{1, 7, 11};
    ThreadPool pool(3, /*cap_to_hardware=*/false);
    for (std::size_t cols : {33u, 64u, 65u, 1090u}) {
        const HnArray array(makeTemplate(cols),
                            syntheticFp4Weights(rows * cols, 1000 + cols),
                            rows, cols, dead);
        for (unsigned width : widths) {
            std::vector<std::vector<std::int64_t>> acts(kColumns);
            std::vector<std::vector<std::int64_t>> want(kColumns);
            std::vector<HnActivity> want_act(kColumns);
            for (std::size_t b = 0; b < kColumns; ++b) {
                acts[b] = randomActivations(cols, width,
                                            cols * 64 + width * 9 + b);
                want[b] = array.gemvSerial(acts[b], width, &want_act[b],
                                           nullptr, HnKernel::Scalar);
                ASSERT_EQ(want[b], array.gemvReference(acts[b]));
                for (std::uint32_t r : dead)
                    ASSERT_EQ(want[b][r], 0);
            }
            for (std::size_t batch = 1; batch <= kColumns; ++batch) {
                const std::vector<std::vector<std::int64_t>> prefix(
                    acts.begin(), acts.begin() + batch);
                HnActivity prefix_act;
                for (std::size_t b = 0; b < batch; ++b)
                    prefix_act.add(want_act[b]);
                const auto check = [&](HnKernel kernel, ThreadPool *p) {
                    HnActivity act;
                    const auto flat =
                        array.gemmSerial(prefix, width, &act, p, kernel);
                    ASSERT_EQ(flat.size(), rows * batch);
                    for (std::size_t b = 0; b < batch; ++b) {
                        for (std::size_t r = 0; r < rows; ++r) {
                            ASSERT_EQ(flat[r * batch + b], want[b][r])
                                << "cols " << cols << " width " << width
                                << " batch " << batch << " b " << b
                                << " r " << r;
                        }
                    }
                    expectActivityEq(act, prefix_act);
                };
                check(HnKernel::Packed, nullptr);
                check(HnKernel::Packed, &pool);
                forEachSimdTier([&] {
                    check(HnKernel::Simd, nullptr);
                    check(HnKernel::Simd, &pool);
                });
            }
        }
    }
}

TEST(SimdKernel, WidthsAboveDotMaxRunPacked)
{
    const std::size_t dim = 40;
    HnScratch scratch;
    scratch.ensureSlots(1);
    const std::vector<double> column(dim, 1.0);
    scratch.columns[0] = column.data();
    for (unsigned width : {2u, 8u, 16u, 17u, 24u, 32u}) {
        const HnColumns cols = HnArray::prepareColumns(
            scratch, 1, dim, width, HnKernel::Simd, nullptr);
        const bool dot = width <= kHnDotMaxWidth;
        EXPECT_EQ(cols.kernel, dot ? HnKernel::Simd : HnKernel::Packed)
            << "width " << width;
        EXPECT_EQ(cols.narrowed != nullptr, dot);
        EXPECT_EQ(cols.planes != nullptr, !dot);
    }
}

TEST(SimdKernel, Width16SumsPastInt32AreExact)
{
    // At |x| = 2^15 and |2w| = 12, 5461 products still sum inside
    // int32 (12 * 2^15 * 5461 < 2^31) and 5462 do not, so the dot
    // body must switch to int64 accumulation exactly there.  Row 0
    // wires every input at +6 (2w = 12), row 1 at -6.
    for (std::size_t cols : {5461u, 5462u}) {
        std::vector<Fp4> weights(cols, Fp4::quantize(6.0));
        weights.resize(2 * cols, Fp4::quantize(-6.0));
        const HnArray array(makeTemplate(cols), weights, 2, cols);
        const std::vector<std::int64_t> acts(cols, -32768);
        const std::int64_t sum = -12 * 32768 * std::int64_t(cols);
        const std::vector<std::int64_t> want{sum, -sum};
        ASSERT_EQ(array.gemvReference(acts), want);
        HnActivity packed_act;
        EXPECT_EQ(array.gemvSerial(acts, 16, &packed_act, nullptr,
                                   HnKernel::Packed),
                  want);
        forEachSimdTier([&] {
            HnActivity simd_act;
            EXPECT_EQ(array.gemvSerial(acts, 16, &simd_act, nullptr,
                                       HnKernel::Simd),
                      want)
                << "cols " << cols;
            expectActivityEq(simd_act, packed_act);
        });
    }
}

TEST(PackedKernel, RealGemvMatchesScalarExactly)
{
    const std::size_t rows = 9, cols = 77;
    const auto tmpl = makeTemplate(cols);
    const auto weights = syntheticFp4Weights(rows * cols, 23);
    const HnArray array(tmpl, weights, rows, cols);

    Vec x(cols);
    for (std::size_t i = 0; i < cols; ++i)
        x[i] = std::sin(double(i) * 0.7) * 2.0;

    const auto scalar = array.gemvReal(x, 8, nullptr, nullptr,
                                       HnKernel::Scalar);
    const auto packed = array.gemvReal(x, 8, nullptr, nullptr,
                                       HnKernel::Packed);
    ASSERT_EQ(scalar.size(), packed.size());
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(packed[r], scalar[r]) << "row " << r; // bit-identical
}

// -- faulted arrays -------------------------------------------------------

TEST(PackedKernel, StuckAtFaultedLinearStaysBitExact)
{
    FaultModelParams params;
    params.seed = 99;
    params.stuckBitRate = 0.03;
    params.deadRowRate = 0.1;
    const FaultInjector injector(params);

    const Linear clean = Linear::random(24, 70, 7);
    const Linear faulty = applyToLinear(injector, clean, "kernel.sweep");

    Vec x(70);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::cos(double(i)) * 1.5;

    for (unsigned width : {4u, 8u, 16u}) {
        HnActivity scalar_act;
        const Vec scalar =
            faulty.forward(x, ExecContext{ExecPath::Hardwired, width,
                                          HnKernel::Scalar,
                                          &scalar_act});
        for (HnKernel kernel : {HnKernel::Packed, HnKernel::Simd}) {
            HnActivity kernel_act;
            const Vec got =
                faulty.forward(x, ExecContext{ExecPath::Hardwired,
                                              width, kernel,
                                              &kernel_act});
            ASSERT_EQ(scalar.size(), got.size());
            for (std::size_t r = 0; r < scalar.size(); ++r)
                EXPECT_EQ(got[r], scalar[r]) << "row " << r;
            expectActivityEq(kernel_act, scalar_act);
            for (std::uint32_t r : faulty.deadRows())
                EXPECT_EQ(got[r], 0.0);
        }
    }
}

// -- projections fused off one column preparation -------------------------

TEST(FusedProjections, MatchSeparateForwardBatchOnEveryKernelAndPool)
{
    // Three projections of one input width, none a multiple of 8 rows
    // high, so the pool's 8-aligned row chunks straddle the projection
    // boundaries; the middle one has dead rows at both of its ends.
    // Batch 9 crosses kHnBatchChunk.  Every fused result must equal
    // the projection's own forwardBatch, outputs and activity both.
    const std::size_t in = 70;
    const Linear a = Linear::random(13, in, 1);
    const Linear b(Linear::random(21, in, 2).codes(), 21, in, {0, 5, 20});
    const Linear c = Linear::random(6, in, 3);
    const Linear *const projections[] = {&a, &b, &c};
    ThreadPool pool(4, /*cap_to_hardware=*/false);
    HnScratch scratch;
    for (std::size_t batch : {1u, 9u}) {
        std::vector<Vec> xs(batch, Vec(in));
        for (std::size_t col = 0; col < batch; ++col) {
            for (std::size_t i = 0; i < in; ++i)
                xs[col][i] = std::sin(double(i * 7 + col * 3) * 0.37);
        }
        const auto check = [&](ExecPath path, HnKernel kernel,
                               ThreadPool *p) {
            SCOPED_TRACE(testing::Message()
                         << "batch " << batch << " path " << int(path)
                         << " kernel " << int(kernel) << " pool "
                         << (p != nullptr));
            HnActivity want_act, got_act;
            ExecContext ctx{path, 8, kernel, &want_act, p, &scratch};
            std::vector<Vec> want[3];
            for (std::size_t i = 0; i < 3; ++i)
                want[i] = projections[i]->forwardBatch(xs, ctx);
            ctx.activity = &got_act;
            std::vector<Vec> got[3];
            Linear::forwardFused(projections, xs, ctx, got);
            for (std::size_t i = 0; i < 3; ++i)
                EXPECT_EQ(got[i], want[i]) << "projection " << i;
            expectActivityEq(got_act, want_act);
            for (std::uint32_t r : b.deadRows()) {
                for (const Vec &y : got[1])
                    EXPECT_EQ(y[r], 0.0);
            }
        };
        for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
            check(ExecPath::Reference, HnKernel::Packed, p);
            check(ExecPath::Hardwired, HnKernel::Scalar, p);
            check(ExecPath::Hardwired, HnKernel::Packed, p);
            forEachSimdTier(
                [&] { check(ExecPath::Hardwired, HnKernel::Simd, p); });
        }
    }
}

TEST(FusedProjections, NestedScratchLeaseIsRefused)
{
    // A lease inside a live lease of the same scratch would overwrite
    // the columns the outer GEMM is still reading.
    HnScratch scratch;
    HnScratchLease outer(&scratch);
    EXPECT_DEATH(HnScratchLease inner(&scratch), "leased twice");
}

// -- engine-level equality ------------------------------------------------

TEST(PackedKernel, EngineKernelsAgreeExactly)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 2024);

    for (std::size_t threads : {1u, 4u}) {
        for (HnKernel kernel : {HnKernel::Packed, HnKernel::Simd}) {
            ExecOptions scalar_exec;
            scalar_exec.threads = threads;
            scalar_exec.kernel = HnKernel::Scalar;
            Engine scalar_engine(cfg, weights, ExecPath::Hardwired, 8,
                                 scalar_exec);
            ExecOptions exec;
            exec.threads = threads;
            exec.kernel = kernel;
            Engine engine(cfg, weights, ExecPath::Hardwired, 8, exec);

            KvCache scalar_cache = scalar_engine.makeCache();
            KvCache cache = engine.makeCache();
            for (std::size_t token : {1u, 5u, 9u, 2u}) {
                const Vec a =
                    scalar_engine.forwardToken(token, scalar_cache);
                const Vec b = engine.forwardToken(token, cache);
                ASSERT_EQ(a.size(), b.size());
                for (std::size_t i = 0; i < a.size(); ++i)
                    ASSERT_EQ(b[i], a[i]) << "logit " << i;
            }
            expectActivityEq(engine.stats().hnActivity,
                             scalar_engine.stats().hnActivity);

            Sampler greedy_a({0.0, 0}, 0), greedy_b({0.0, 0}, 0);
            EXPECT_EQ(engine.generate({3, 1}, 6, greedy_b),
                      scalar_engine.generate({3, 1}, 6, greedy_a));
        }
    }
}

} // namespace
} // namespace hnlpu
