/**
 * @file
 * Prefix-cache benchmark: TTFT and aggregate throughput of the
 * continuous-batching ServingEngine with and without the cross-request
 * prefix cache, at 0 / 50 / 90% shared-system-prompt mixes.
 *
 * The workload models the paper's fleet scenario: many concurrent
 * requests that open with the same long system prompt and diverge into
 * short user-specific tails.  With the prefix cache on, an admission
 * whose prompt matches a cached prefix adopts the already-computed KV
 * blocks (ref-counted, copy-on-write; see xformer/kv_block_pool.hh)
 * and starts prefill at the first uncached position, so the shared 48
 * tokens are computed once per fleet instead of once per request.
 *
 * Inline acceptance checks (exit non-zero on violation):
 *   - decoded tokens are bit-identical with the cache on and off, at
 *     every mix, on both execution paths -- sharing is a pure
 *     scheduling optimisation;
 *   - at the 90% mix the reference-path p50 TTFT improves by >= 1.5x
 *     over the unshared run;
 *   - the 0% mix takes no prefix hits (nothing is shareable).
 *
 * Every mix is measured as kPairs off/on pairs whose order alternates
 * and reported as the pair with the median TTFT speedup (a single pair
 * once read 1.33x at the hardwired 0% mix, where nothing is
 * shareable, on a noisy host).  Measurements, each pair's speedup
 * included, go to BENCH_prefix.json.
 *
 * Usage: bench_prefix [requests] [json] [--smoke] [--json-out path]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "expt/workload.hh"
#include "model/model_zoo.hh"
#include "xformer/engine.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"
#include "xformer/weights.hh"

namespace {

using namespace hnlpu;

constexpr std::size_t kSharedTokens = 48;
constexpr std::size_t kSlots = 4;
/** Off/on pairs behind each mix's speedup (odd: a true median). */
constexpr std::size_t kPairs = 3;

struct MixResult
{
    std::size_t percent = 0;
    double ttftOff = 0, ttftOn = 0; //!< p50 seconds
    double tpsOff = 0, tpsOn = 0;   //!< aggregate decoded tokens/s
    std::size_t hits = 0, misses = 0, matchedTokens = 0;
    /** TTFT speedup of every pair, in the order they ran. */
    std::vector<double> pairSpeedups;
};

[[noreturn]] void
fail(const char *what)
{
    std::fprintf(stderr, "FATAL: %s\n", what);
    std::exit(1);
}

/**
 * Serve @p trace once with the prefix cache on or off, recording that
 * side of @p m; returns the decoded tokens.
 */
std::vector<std::vector<std::size_t>>
serveTrace(const TransformerConfig &cfg, const ModelWeights &weights,
           ExecPath path, const std::vector<expt::TraceRequest> &trace,
           bool with_prefix, MixResult &m)
{
    Engine engine(cfg, weights, path);
    std::optional<PrefixCache> prefix;
    if (with_prefix)
        prefix.emplace(engine.kvPool());
    ServingEngine serving(engine, kSlots, prefix ? &*prefix : nullptr);
    for (const expt::TraceRequest &tr : trace) {
        ServingRequest req;
        req.prompt = tr.prompt;
        req.decodeTokens = tr.decodeTokens;
        req.arrivalStep = tr.arrivalStep;
        req.sampler = tr.sampler;
        req.seed = tr.seed;
        if (!serving.tryEnqueue(std::move(req)).admitted())
            fail("trace request rejected");
    }
    std::vector<std::vector<std::size_t>> tokens;
    for (const ServingOutcome &out : serving.run())
        tokens.push_back(out.tokens);
    const ServingStats &s = serving.stats();
    if (with_prefix) {
        m.ttftOn = s.ttftP50Seconds;
        m.tpsOn = s.aggregateTokensPerSecond;
        m.hits = s.prefixHits;
        m.misses = s.prefixMisses;
        m.matchedTokens = s.prefixMatchedTokens;
    } else {
        m.ttftOff = s.ttftP50Seconds;
        m.tpsOff = s.aggregateTokensPerSecond;
    }
    return tokens;
}

double
speedupOf(const MixResult &m)
{
    return m.ttftOn > 0.0 ? m.ttftOff / m.ttftOn : 0.0;
}

/**
 * One mix at one path: serve the trace with the cache off and on,
 * kPairs times, and return the pair with the median TTFT speedup, with
 * every pair's speedup.  The side that runs first alternates, so a
 * host that speeds up or slows down during the measurement favours
 * neither.
 */
MixResult
measureMix(const TransformerConfig &cfg, const ModelWeights &weights,
           ExecPath path, std::size_t requests, std::size_t percent,
           std::size_t decode_tokens)
{
    expt::TraceConfig tc;
    tc.vocabSize = cfg.vocabSize;
    tc.requests = requests;
    tc.promptBase = 4;
    tc.promptMod = 4;
    tc.decodeBase = decode_tokens;
    tc.sharedPercent = percent;
    tc.sharedTokens = kSharedTokens;
    const auto trace = expt::makeServingTrace(tc);

    std::vector<MixResult> runs(kPairs);
    std::vector<double> speedups;
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
        MixResult &m = runs[pair];
        m.percent = percent;
        std::vector<std::vector<std::size_t>> tokens[2];
        for (const bool with_prefix : {pair % 2 == 1, pair % 2 == 0})
            tokens[with_prefix] =
                serveTrace(cfg, weights, path, trace, with_prefix, m);
        // Prefix sharing must not change one decoded token.
        if (tokens[0] != tokens[1])
            fail("prefix cache changed decoded tokens");
        speedups.push_back(speedupOf(m));
    }
    std::sort(runs.begin(), runs.end(),
              [](const MixResult &a, const MixResult &b) {
                  return speedupOf(a) < speedupOf(b);
              });
    MixResult median = runs[kPairs / 2];
    median.pairSpeedups = std::move(speedups);
    return median;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const std::size_t requests =
        args.positionalUint(0, args.smoke ? 12 : 24);
    const std::string json_path = args.jsonPath(1, "BENCH_prefix.json");
    const std::size_t decode_ref = 8, decode_hw = 4;

    const TransformerConfig cfg = scaledGptOssBlock();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 7);

    bench::banner("Prefix cache: shared-system-prompt mixes (" +
                  cfg.name + ")");
    std::printf("%zu requests, %zu slots, %zu-token system prompt, "
                "unique tail 4-7 tokens\n",
                requests, kSlots, kSharedTokens);

    obs::JsonWriter w(2);
    w.beginObject();
    w.field("model", cfg.name);
    w.field("requests", requests);
    w.field("slots", kSlots);
    w.field("shared_tokens", kSharedTokens);
    w.key("paths").beginArray();

    double ref_ratio_90 = 0.0;
    for (const ExecPath path :
         {ExecPath::Reference, ExecPath::Hardwired}) {
        const bool ref = path == ExecPath::Reference;
        const char *name = ref ? "reference" : "hardwired";
        const std::size_t decode = ref ? decode_ref : decode_hw;
        bench::banner(std::string(name) + " path");
        Table table({"Shared %", "TTFT p50 off ms", "TTFT p50 on ms",
                     "TTFT speedup", "tok/s off", "tok/s on",
                     "Hits", "Matched tokens"});
        w.beginObject().field("path", name).key("mixes").beginArray();
        for (const std::size_t percent : {0u, 50u, 90u}) {
            const MixResult m =
                measureMix(cfg, weights, path, requests, percent, decode);
            const double speedup = speedupOf(m);
            if (percent == 0 && m.hits != 0)
                fail("0% mix took prefix hits");
            if (percent > 0 && m.hits == 0)
                fail("shared mix took no prefix hits");
            if (ref && percent == 90)
                ref_ratio_90 = speedup;
            table.addRow({std::to_string(percent),
                          commaString(m.ttftOff * 1e3, 2),
                          commaString(m.ttftOn * 1e3, 2),
                          commaString(speedup, 2) + "x",
                          commaString(m.tpsOff, 2),
                          commaString(m.tpsOn, 2),
                          std::to_string(m.hits),
                          std::to_string(m.matchedTokens)});
            w.beginObject()
                .field("shared_percent", m.percent)
                .field("ttft_p50_off_seconds", m.ttftOff)
                .field("ttft_p50_on_seconds", m.ttftOn)
                .field("ttft_p50_speedup", speedup);
            w.key("ttft_p50_speedup_pairs").beginArray();
            for (const double pair : m.pairSpeedups)
                w.value(pair);
            w.endArray()
                .field("tokens_per_second_off", m.tpsOff)
                .field("tokens_per_second_on", m.tpsOn)
                .field("prefix_hits", m.hits)
                .field("prefix_misses", m.misses)
                .field("prefix_matched_tokens", m.matchedTokens)
                .endObject();
        }
        w.endArray().endObject();
        table.print();
    }
    w.endArray();
    w.field("pairs_per_mix", kPairs);
    w.field("ttft_p50_speedup_reference_90", ref_ratio_90);
    w.endObject();

    // Shared prefill amortised across the fleet must cut median TTFT
    // by at least 1.5x at the 90% mix (median of kPairs pairs).
    if (ref_ratio_90 < 1.5) {
        std::fprintf(stderr,
                     "FATAL: 90%% shared mix TTFT speedup %.2fx < "
                     "1.5x\n",
                     ref_ratio_90);
        return 1;
    }
    bench::writeJsonFile(json_path, w, "3 mixes x 2 paths");
    return 0;
}
