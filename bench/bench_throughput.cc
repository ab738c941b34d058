/**
 * @file
 * Host-side decode throughput of the functional engine across thread
 * counts and HN GEMV kernels (ExecOptions{threads, kernel}).
 *
 * Runs a scaled gpt-oss-shaped block (same head/expert structure as
 * gpt-oss 120 B, dimensions shrunk ~10x so the functional simulation
 * fits a laptop) through a prefill + autoregressive decode loop and
 * reports tokens/s at 1/2/4/8 threads for:
 *
 *  - the reference float path,
 *  - the hardwired path with the Scalar (per-wire emulation) kernel,
 *  - the hardwired path with the Packed (word-parallel popcount)
 *    kernel,
 *  - the hardwired path with the Simd (int8 2*w image dot product)
 *    kernel, which runs its vector body on this block's 288-wide rows
 *    like on any other width.
 *
 * Methodology: every configuration is measured kReps times after one
 * untimed warmup generation (first-touch page faults, lazy hardwired
 * programming and branch training land in the warmup); the table and
 * JSON report the MEDIAN of the reps plus the min/max spread, so a
 * single scheduler hiccup cannot masquerade as a regression.  Pool
 * threads are pinned round-robin across the online CPUs
 * (ExecOptions::pinThreads) so the scaling numbers measure the
 * kernels, not thread migration.
 *
 * Because both the parallel layer and the word-parallel kernels are
 * bit-exact, every row of the tables computes the same tokens -- only
 * the wall clock changes.  All measurements are also written to
 * BENCH_throughput.json (machine readable, for trajectory tracking).
 *
 * Usage: bench_throughput [decode_steps_ref] [decode_steps_hw] [json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "hn/hn_simd.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/sampler.hh"
#include "xformer/weights.hh"

namespace {

using namespace hnlpu;

/** Timed repetitions per configuration (median reported). */
constexpr std::size_t kReps = 3;

const char *
kernelName(HnKernel kernel)
{
    switch (kernel) {
    case HnKernel::Scalar: return "scalar";
    case HnKernel::Packed: return "packed";
    case HnKernel::Simd: return "simd";
    }
    return "?";
}

struct Measurement
{
    std::string path;
    std::string kernel;
    std::size_t threads = 0;
    double tokensPerSecond = 0.0; //!< median of the reps
    double tokensPerSecondMin = 0.0;
    double tokensPerSecondMax = 0.0;
};

Measurement
measure(const TransformerConfig &cfg, const ModelWeights &weights,
        ExecPath path, HnKernel kernel, std::size_t threads,
        std::size_t decode_steps)
{
    ExecOptions exec;
    exec.threads = threads;
    exec.kernel = kernel;
    exec.pinThreads = true;
    Engine engine(cfg, weights, path, 8, exec);
    const std::vector<std::size_t> prompt{7, 301, 42, 1999};
    const double tokens =
        static_cast<double>(prompt.size() + decode_steps);

    auto run = [&] {
        // Fresh sampler per rep: every rep decodes the identical token
        // sequence, so the reps time identical work.
        Sampler greedy(SamplerConfig{}, 1);
        const auto start = std::chrono::steady_clock::now();
        engine.generate(prompt, decode_steps, greedy);
        const auto stop = std::chrono::steady_clock::now();
        return tokens /
               std::chrono::duration<double>(stop - start).count();
    };

    run(); // untimed warmup
    std::vector<double> reps(kReps);
    for (double &r : reps)
        r = run();
    std::sort(reps.begin(), reps.end());

    Measurement m;
    m.path = path == ExecPath::Reference ? "reference" : "hardwired";
    m.kernel = kernelName(kernel);
    m.threads = threads;
    m.tokensPerSecond = reps[kReps / 2];
    m.tokensPerSecondMin = reps.front();
    m.tokensPerSecondMax = reps.back();
    return m;
}

std::vector<Measurement>
reportPath(const char *title, const TransformerConfig &cfg,
           const ModelWeights &weights, ExecPath path, HnKernel kernel,
           std::size_t decode_steps)
{
    bench::banner(title);
    Table table({"Threads", "Tokens/s (median)", "Min", "Max",
                 "Speedup vs 1T"});
    std::vector<Measurement> measurements;
    double base = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        const Measurement m =
            measure(cfg, weights, path, kernel, threads, decode_steps);
        if (threads == 1)
            base = m.tokensPerSecond;
        table.addRow({std::to_string(m.threads),
                      commaString(m.tokensPerSecond, 2),
                      commaString(m.tokensPerSecondMin, 2),
                      commaString(m.tokensPerSecondMax, 2),
                      commaString(m.tokensPerSecond / base, 2) + "x"});
        measurements.push_back(m);
    }
    table.print();
    std::printf("(hardware concurrency: %u, %zu reps/config, threads "
                "pinned)\n",
                std::thread::hardware_concurrency(), kReps);
    return measurements;
}

void
speedupTable(const char *title, const std::vector<Measurement> &all,
             std::size_t base_off, std::size_t new_off,
             const char *base_name, const char *new_name)
{
    bench::banner(title);
    Table table({"Threads", std::string(base_name) + " tok/s",
                 std::string(new_name) + " tok/s", "Speedup"});
    for (std::size_t t = 0; t < 4; ++t) {
        const Measurement &base = all[base_off + t];
        const Measurement &next = all[new_off + t];
        table.addRow({std::to_string(base.threads),
                      commaString(base.tokensPerSecond, 2),
                      commaString(next.tokensPerSecond, 2),
                      commaString(next.tokensPerSecond /
                                  base.tokensPerSecond, 2) + "x"});
    }
    table.print();
}

void
writeJson(const std::string &json_path, const TransformerConfig &cfg,
          const std::vector<Measurement> &measurements)
{
    obs::JsonWriter w(2);
    w.beginObject();
    w.field("model", cfg.name);
    w.field("reps", kReps);
    w.field("simd_level", hnSimdLevelName());
    w.key("configs").beginArray();
    for (const Measurement &m : measurements) {
        w.beginObject()
            .field("path", m.path)
            .field("kernel", m.kernel)
            .field("threads", m.threads)
            .field("tokens_per_s", m.tokensPerSecond)
            .field("tokens_per_s_min", m.tokensPerSecondMin)
            .field("tokens_per_s_max", m.tokensPerSecondMax)
            .endObject();
    }
    w.endArray();
    w.endObject();
    bench::writeJsonFile(json_path, w,
                         std::to_string(measurements.size()) +
                             " configs");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hnlpu;

    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const std::size_t decode_ref =
        args.positionalUint(0, args.smoke ? 8 : 48);
    const std::size_t decode_hw =
        args.positionalUint(1, args.smoke ? 4 : 8);
    const std::string json_path =
        args.jsonPath(2, "BENCH_throughput.json");

    const TransformerConfig cfg = scaledGptOssBlock();
    bench::banner("Decode throughput vs thread count and kernel (" +
                  cfg.name + ")");
    std::printf("hidden %zu, %zu experts (top-%zu), %zu query heads, "
                "vocab %zu, simd level %s\n",
                cfg.hiddenSize, cfg.expertCount, cfg.activeExperts,
                cfg.queryHeads, cfg.vocabSize, hnSimdLevelName());

    const ModelWeights weights = ModelWeights::randomInit(cfg, 7);

    std::vector<Measurement> all;
    auto append = [&all](const std::vector<Measurement> &ms) {
        all.insert(all.end(), ms.begin(), ms.end());
    };
    append(reportPath("Reference path (float GEMV)", cfg, weights,
                      ExecPath::Reference, HnKernel::Packed,
                      decode_ref));
    append(reportPath("Hardwired path, Scalar kernel (per-wire "
                      "emulation)",
                      cfg, weights, ExecPath::Hardwired,
                      HnKernel::Scalar, decode_hw));
    append(reportPath("Hardwired path, Packed kernel (word-parallel "
                      "popcount)",
                      cfg, weights, ExecPath::Hardwired,
                      HnKernel::Packed, decode_hw));
    append(reportPath("Hardwired path, Simd kernel (2*w image dot "
                      "product)",
                      cfg, weights, ExecPath::Hardwired,
                      HnKernel::Simd, decode_hw));

    // Offsets into `all`: 0 reference, 4 scalar, 8 packed, 12 simd.
    speedupTable("Packed kernel speedup over Scalar (hardwired path)",
                 all, 4, 8, "Scalar", "Packed");
    speedupTable("Simd kernel speedup over Packed (hardwired path)",
                 all, 8, 12, "Packed", "Simd");

    writeJson(json_path, cfg, all);
    return 0;
}
