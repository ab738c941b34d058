/**
 * @file
 * Continuous-batching serving throughput: aggregate tokens/s of the
 * ServingEngine at 1/2/4/8 decode slots over the batched HN GEMM path.
 *
 * A fixed trace of requests (same prompts, same seeds) is served at
 * every slot count for both execution paths; because the batched
 * kernels are bit-exact per column, every configuration decodes the
 * same tokens and only the wall clock changes -- the bench verifies
 * that token equality inline.  The speedup at batch >= 4 over batch ==
 * 1 is the tentpole acceptance metric: one weight-side traversal
 * (region-mask walk on the hardwired path, FP4 row dequantisation on
 * the reference path) is amortised over every in-flight sequence.
 *
 * Measurements, including per-request TTFT / queueing / p50 / p95
 * records, go to BENCH_serving.json.  With --trace, one extra 2-slot
 * 2-thread run is served under an obs::Tracer and the Chrome trace
 * (spans from serving, engine, moe and the thread pool) is written to
 * the given path; the traced run must decode the same tokens as the
 * untraced ones.
 *
 * Usage: bench_serving [decode_ref] [decode_hw] [requests] [json]
 *                      [--trace trace.json] [--smoke] [--json-out path]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "expt/workload.hh"
#include "model/model_zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "xformer/engine.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"
#include "xformer/weights.hh"

namespace {

using namespace hnlpu;

struct Measurement
{
    std::string path;
    std::size_t slots = 0;
    ServingStats stats;
    std::string metricsJson;
    std::vector<std::vector<std::size_t>> tokens;
};

Measurement
measure(const TransformerConfig &cfg, const ModelWeights &weights,
        ExecPath path, std::size_t slots, std::size_t requests,
        std::size_t prompt_tokens, std::size_t decode_tokens,
        const obs::Sink *sink = nullptr, std::size_t threads = 1)
{
    ExecOptions exec;
    exec.threads = threads; // 1 isolates the batched-kernel win
    exec.sink = sink;
    Engine engine(cfg, weights, path, 8, exec);
    ServingEngine serving(engine, slots);

    expt::TraceConfig tc;
    tc.vocabSize = cfg.vocabSize;
    tc.requests = requests;
    tc.promptBase = prompt_tokens;
    tc.decodeBase = decode_tokens;
    for (const expt::TraceRequest &tr : expt::makeServingTrace(tc)) {
        ServingRequest req;
        req.prompt = tr.prompt;
        req.decodeTokens = tr.decodeTokens;
        req.arrivalStep = tr.arrivalStep;
        req.sampler = tr.sampler;
        req.seed = tr.seed;
        if (!serving.tryEnqueue(std::move(req)).admitted()) {
            std::fprintf(stderr, "FATAL: trace request rejected\n");
            std::exit(1);
        }
    }
    const auto outcomes = serving.run();

    Measurement m;
    m.path = path == ExecPath::Reference ? "reference" : "hardwired";
    m.slots = slots;
    m.stats = serving.stats();
    m.metricsJson = serving.metricsJson();
    for (const auto &out : outcomes)
        m.tokens.push_back(out.tokens);
    return m;
}

std::vector<Measurement>
reportPath(const char *title, const TransformerConfig &cfg,
           const ModelWeights &weights, ExecPath path,
           std::size_t requests, std::size_t prompt_tokens,
           std::size_t decode_tokens)
{
    bench::banner(title);
    Table table({"Slots", "Agg tok/s", "Speedup", "Occupancy",
                 "TTFT p50 ms", "TTFT p95 ms", "Latency p95 ms"});
    std::vector<Measurement> measurements;
    double base = 0.0;
    for (std::size_t slots : {1u, 2u, 4u, 8u}) {
        Measurement m = measure(cfg, weights, path, slots, requests,
                                prompt_tokens, decode_tokens);
        if (slots == 1)
            base = m.stats.aggregateTokensPerSecond;
        // Bit-exactness sanity: every slot count decodes the identical
        // tokens; only the wall clock may differ.
        if (!measurements.empty() &&
            m.tokens != measurements.front().tokens) {
            std::fprintf(stderr,
                         "FATAL: slots=%zu decoded different tokens\n",
                         slots);
            std::exit(1);
        }
        table.addRow(
            {std::to_string(slots),
             commaString(m.stats.aggregateTokensPerSecond, 2),
             commaString(m.stats.aggregateTokensPerSecond / base, 2) +
                 "x",
             commaString(m.stats.meanOccupancy, 2),
             commaString(m.stats.ttftP50Seconds * 1e3, 2),
             commaString(m.stats.ttftP95Seconds * 1e3, 2),
             commaString(m.stats.latencyP95Seconds * 1e3, 2)});
        measurements.push_back(std::move(m));
    }
    table.print();
    return measurements;
}

void
writeJson(const std::string &json_path, const TransformerConfig &cfg,
          std::size_t requests, std::size_t prompt_tokens,
          const std::vector<Measurement> &measurements)
{
    obs::JsonWriter w(2);
    w.beginObject();
    w.field("model", cfg.name);
    w.field("requests", requests);
    w.field("prompt_tokens", prompt_tokens);
    w.field("threads", 1);
    w.key("configs").beginArray();
    double base_ref = 0.0, base_hw = 0.0;
    for (const Measurement &m : measurements) {
        double &base = m.path == "reference" ? base_ref : base_hw;
        if (m.slots == 1)
            base = m.stats.aggregateTokensPerSecond;
        w.beginObject()
            .field("path", m.path)
            .field("slots", m.slots)
            .field("aggregate_tokens_per_s",
                   m.stats.aggregateTokensPerSecond)
            .field("speedup_vs_slots1",
                   base > 0.0
                       ? m.stats.aggregateTokensPerSecond / base
                       : 0.0)
            .key("metrics")
            .rawValue(m.metricsJson)
            .endObject();
    }
    w.endArray();
    w.endObject();
    bench::writeJsonFile(json_path, w,
                         std::to_string(measurements.size()) +
                             " configs");
}

/**
 * Serve the reference trace once more under a Tracer + MetricsRegistry
 * and write the Chrome trace to @p trace_path.  Returns the decoded
 * tokens so the caller can pin bit-identity against the untraced runs.
 */
std::vector<std::vector<std::size_t>>
writeTrace(const std::string &trace_path, const TransformerConfig &cfg,
           const ModelWeights &weights, std::size_t requests,
           std::size_t prompt_tokens, std::size_t decode_tokens)
{
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::Sink sink;
    sink.trace = &tracer;
    sink.metrics = &metrics;
    // 2 slots batches steps; 2 threads makes pool.chunk spans appear.
    const Measurement m =
        measure(cfg, weights, ExecPath::Reference, 2, requests,
                prompt_tokens, decode_tokens, &sink, 2);
    tracer.writeFile(trace_path);
    std::printf("\nwrote %s (%zu spans, %s decoded tokens/s)\n",
                trace_path.c_str(), tracer.eventCount(),
                commaString(m.stats.aggregateTokensPerSecond, 2)
                    .c_str());
    return m.tokens;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hnlpu;

    // Positional args as documented, plus the shared bench flags.
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const std::string &trace_path = args.tracePath;
    const std::size_t decode_ref = args.positionalUint(0, 24);
    const std::size_t decode_hw = args.positionalUint(1, 12);
    const std::size_t requests =
        args.positionalUint(2, args.smoke ? 4 : 8);
    const std::string json_path =
        args.jsonPath(3, "BENCH_serving.json");
    const std::size_t prompt_tokens = 4;

    const TransformerConfig cfg = scaledGptOssBlock();
    bench::banner("Continuous-batching serving throughput (" +
                  cfg.name + ")");
    std::printf("hidden %zu, %zu experts (top-%zu), vocab %zu; "
                "%zu requests, prompt %zu\n",
                cfg.hiddenSize, cfg.expertCount, cfg.activeExperts,
                cfg.vocabSize, requests, prompt_tokens);

    const ModelWeights weights = ModelWeights::randomInit(cfg, 7);

    std::vector<Measurement> all;
    auto append = [&all](std::vector<Measurement> ms) {
        for (auto &m : ms)
            all.push_back(std::move(m));
    };
    append(reportPath("Reference path (batched float GEMM)", cfg,
                      weights, ExecPath::Reference, requests,
                      prompt_tokens, decode_ref));
    append(reportPath("Hardwired path, Packed kernel (batched "
                      "region-mask GEMM)",
                      cfg, weights, ExecPath::Hardwired, requests,
                      prompt_tokens, decode_hw));

    writeJson(json_path, cfg, requests, prompt_tokens, all);

    if (!trace_path.empty()) {
        const auto traced = writeTrace(trace_path, cfg, weights,
                                       requests, prompt_tokens,
                                       decode_ref);
        // Observability must not perturb the computation: the traced
        // run decodes the exact tokens of the untraced reference runs.
        if (traced != all.front().tokens) {
            std::fprintf(stderr,
                         "FATAL: traced run decoded different tokens\n");
            return 1;
        }
    }
    return 0;
}
