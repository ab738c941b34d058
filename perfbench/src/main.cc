/**
 * @file
 * hnbench: runs one workload of the repository benchmark.
 *
 * Usage: hnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--weight-seed <n>] [--git-sha <sha>]
 *
 * One run:
 *  1. sets the workload up kSetupReps times (weight build, construction,
 *     first forward) and keeps the last set-up;
 *  2. serves lap 0 untimed, past lazy hardwired programming and the
 *     first-touch ramp; its transcript digest is the run's digest;
 *  3. serves timed laps until --seconds have elapsed; a workload whose
 *     laps repeat must reproduce lap 0's tokens and statuses every lap;
 *  4. re-decodes a sample of lap 0's requests (and of every timed lap's,
 *     when laps serve distinct slices) solo through Engine::generate on
 *     the Packed kernel with one thread, which pins Simd == Packed,
 *     batched == solo and routed == generate;
 *  5. with --trace 1, rebuilds the serving objects with an obs::Tracer
 *     and MetricsRegistry, checks that a traced lap 0 decodes lap 0's
 *     tokens, and folds the spans of further traced laps into the
 *     per-layer metrics.
 *
 * The last line of standard output is one JSON report: host provenance,
 * the workload's settings, the checks, and the end-to-end metrics (or,
 * with --trace 1, the per-layer metrics) with their units.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "bench.hh"
#include "fold.hh"
#include "hn/hn_simd.hh"
#include "obs/metrics.hh"

namespace {

using namespace hnbench;
using namespace hnlpu;

constexpr std::size_t kSetupReps = 3;
/** Tail percentiles keep at least this many samples beyond them. */
constexpr std::size_t kTailBeyond = 10;
/** Per-layer self times must sum to their roots' wall within this. */
constexpr double kSelfSumTolerance = 0.05;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t weightSeed = 7;
    double seconds = 0;
    bool trace = false;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hnbench: %s\nusage: hnbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--weight-seed <n>] "
                 "[--git-sha <sha>]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        usage("expected an unsigned integer");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing flag value");
        const char *value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseUint(value);
            have_seed = true;
        } else if (flag == "--weight-seed") {
            o.weightSeed = parseUint(value);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            o.trace = parseUint(value) != 0;
            have_trace = true;
        } else if (flag == "--git-sha") {
            o.gitSha = value;
        } else {
            usage("unknown flag");
        }
    }
    if (o.workload.empty() || !have_seed || !have_trace ||
        !(o.seconds > 0))
        usage("--workload, --seed, --seconds > 0 and --trace are required");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Exact order statistics of per-request values.  A request that did not
 * complete (shed or cancelled) counts as missing every limit: it enters
 * as +inf and a reported percentile that lands on one reads as the whole
 * timed phase.
 */
class Sample
{
  public:
    void add(double v) { values_.push_back(v); }
    void addMissed() { add(std::numeric_limits<double>::infinity()); }
    std::size_t size() const { return values_.size(); }

    /** Linear interpolation between order statistics, p in [0, 100]. */
    double
    percentile(double p) const
    {
        std::vector<double> v = sorted();
        if (v.empty())
            return 0.0;
        const double pos = p / 100.0 * double(v.size() - 1);
        const std::size_t lo = std::size_t(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        if (v[hi] == v[lo] || std::isinf(v[hi]))
            return v[lo];
        return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
    }

    /**
     * The highest percentile with at least kTailBeyond samples above
     * it: the order statistic kTailBeyond + 1 from the top.
     */
    double
    tailPercentile() const
    {
        const std::size_t n = values_.size();
        if (n <= kTailBeyond + 1)
            return 0.0;
        return 100.0 * double(n - kTailBeyond - 1) / double(n - 1);
    }

  private:
    std::vector<double>
    sorted() const
    {
        std::vector<double> v = values_;
        std::sort(v.begin(), v.end());
        return v;
    }

    std::vector<double> values_;
};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over (id, tenant, status, token count, tokens) per request. */
std::string
transcriptDigest(const LapResult &lap,
                 const std::vector<expt::TraceRequest> &requests)
{
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < lap.requests.size(); ++i) {
        const RequestResult &r = lap.requests[i];
        h = fnvMix(h, i);
        h = fnvMix(h, requests[i].tenantId);
        h = fnvMix(h, r.status);
        h = fnvMix(h, r.tokens.size());
        for (const std::size_t tok : r.tokens)
            h = fnvMix(h, tok);
    }
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
    return buf;
}

/** Requests of @p lap whose tokens or status differ from @p ref. */
std::size_t
mismatches(const LapResult &lap, const LapResult &ref)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < lap.requests.size(); ++i) {
        const RequestResult &a = lap.requests[i], &b = ref.requests[i];
        n += (a.status != b.status || a.tokens != b.tokens) ? 1 : 0;
    }
    return n;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Metric name -> (value, unit), in insertion order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    write(obs::JsonWriter &w) const
    {
        w.beginObject();
        for (const Entry &e : entries_) {
            w.key(e.name).beginObject();
            w.field("value", e.value).field("unit", e.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

/** Solo re-decodes of sampled requests (see the file comment). */
struct VerifyResult
{
    std::size_t sampled = 0;
    std::size_t mismatches = 0;
    EngineWork work;
    std::size_t decodedTokens = 0;
};

/**
 * Re-decode wl.verifyCount() completed requests of @p lap, drawn with
 * @p rng, through a Packed single-thread Engine::generate and compare
 * them with what the lap decoded.
 */
VerifyResult
verifySolo(const Workload &wl, std::size_t index, const LapResult &lap,
           Rng &rng)
{
    const auto &requests = wl.lapRequests(index);
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < lap.requests.size(); ++i) {
        if (lap.requests[i].completed)
            candidates.push_back(i);
    }
    for (std::size_t i = candidates.size(); i > 1; --i)
        std::swap(candidates[i - 1], candidates[rng.nextBelow(i)]);
    candidates.resize(std::min(candidates.size(), wl.verifyCount()));
    std::sort(candidates.begin(), candidates.end());

    ExecOptions exec;
    exec.threads = 1;
    exec.kernel = HnKernel::Packed;
    Engine engine(wl.config(), wl.weights(), ExecPath::Hardwired,
                  kActivationBits, exec);
    VerifyResult v;
    v.work.experts.assign(wl.config().expertCount, 0);
    for (const std::size_t i : candidates) {
        const expt::TraceRequest &req = requests[i];
        engine.setLora(wl.adapter(req.tenantId));
        Sampler sampler(req.sampler, req.seed);
        const EngineStats before = engine.stats();
        const std::vector<std::size_t> tokens =
            engine.generate(req.prompt, req.decodeTokens, sampler);
        v.work.addDelta(before, engine.stats());
        ++v.sampled;
        v.decodedTokens += tokens.size();
        if (tokens != lap.requests[i].tokens)
            ++v.mismatches;
    }
    return v;
}

/** Everything the per-layer metrics fold over. */
struct TracedPhase
{
    std::vector<LapResult> laps;
    std::vector<Span> spans;
    std::size_t lap0Mismatches = 0;
    std::size_t lap0Requests = 0;
    std::size_t kvBlocks = 0;
};

/** Laps 1, 2, ... until @p seconds have elapsed (at least one). */
std::vector<LapResult>
runTimedLaps(Workload &wl, double seconds)
{
    std::vector<LapResult> laps;
    const auto t0 = Clock::now();
    do {
        laps.push_back(wl.runLap(laps.size() + 1));
    } while (secondsSince(t0) < seconds);
    return laps;
}

/** Mean of @p values (0 when empty). */
double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / double(values.size());
}

void
perLayerMetrics(Metrics &m, const Workload &wl, const TracedPhase &tp,
                const LapResult &lap0, const VerifyResult &verify,
                const std::vector<SetupTimes> &setups,
                double untraced_tok_s, double &self_sum_frac,
                obs::JsonWriter &breakdown)
{
    // Modelled HNLPU work is an exact count of lap 0's measured calls
    // on the workload's own engine; the router hides its engines, so
    // chat_fleet counts the solo re-decode sample instead.
    const bool own = lap0.engine.has_value();
    const EngineWork &work = own ? *lap0.engine : verify.work;
    const double work_tokens =
        double(own ? lap0.decodedTokens() : verify.decodedTokens);
    const auto perWorkToken = [&](std::size_t v) {
        return work_tokens > 0 ? double(v) / work_tokens : 0.0;
    };
    m.set("hn.cycles_per_token", perWorkToken(work.activity.cycles),
          "count");
    m.set("hn.popcount_bits_per_token",
          perWorkToken(work.activity.popcountBitOps), "count");
    m.set("hn.multiply_ops_per_token",
          perWorkToken(work.activity.multiplyOps), "count");
    m.set("hn.tree_add_ops_per_token",
          perWorkToken(work.activity.treeAddOps), "count");

    double decoded = 0, wall = 0;
    std::size_t forwards = 0, hits = 0, misses = 0, matched = 0,
                prompt_tokens = 0, shed = 0, cancelled = 0, retries = 0;
    Sample queue_ms;
    std::vector<double> queue_steps;
    for (const LapResult &lap : tp.laps) {
        decoded += double(lap.decodedTokens());
        wall += lap.wallS;
        forwards += lap.forwards;
        hits += lap.prefixHits;
        misses += lap.prefixMisses;
        matched += lap.matchedTokens;
        prompt_tokens += lap.promptTokens;
        shed += lap.shed;
        cancelled += lap.cancelled;
        retries += lap.retries;
        for (const RequestResult &r : lap.requests) {
            if (!r.completed)
                continue;
            queue_ms.add(r.queueS * 1e3);
            queue_steps.push_back(double(r.queueSteps));
        }
    }
    const double laps = double(tp.laps.size());

    // The measured roots: the spans wrapping the calls whose decoded
    // tokens the metrics are normalised by, and on the router's shard
    // threads the shard steps.
    const std::string wall_root = wl.measuredSpan();
    const std::vector<std::string> roots = {wall_root, "router.shard_step"};
    const auto totals = totalsUnder(tp.spans, roots);
    const auto total = [&](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? NameTotals{} : it->second;
    };
    const auto msPerToken = [&](const std::string &name) {
        return decoded > 0 ? total(name).selfUs / 1e3 / decoded : 0.0;
    };
    m.set("engine.attention.ms_per_token", msPerToken("engine.attention"),
          "ms");
    m.set("engine.unembed.ms_per_token", msPerToken("engine.unembed"),
          "ms");
    m.set("engine.layer.self_ms_per_token", msPerToken("engine.layer"),
          "ms");

    // Router steps report their batch; other front ends count forwards.
    std::size_t shard_forwards = 0;
    double shard_step_us = 0;
    std::size_t shard_steps = 0;
    std::vector<std::pair<double, double>> shard_step_spans; // (ts, dur)
    std::vector<std::pair<double, double>> wall_roots; // [start, end)
    double wall_root_us = 0;
    std::size_t chunk_count = 0;
    double chunk_us = 0;
    for (const Span &s : tp.spans) {
        if (s.name == "router.shard_step") {
            shard_forwards += std::size_t(std::max<std::int64_t>(s.batch, 0));
            shard_step_us += s.dur;
            ++shard_steps;
            shard_step_spans.push_back({s.ts, s.dur});
        }
        if (s.name == wall_root) {
            wall_roots.push_back({s.ts, s.ts + s.dur});
            wall_root_us += s.dur;
        }
    }
    std::sort(wall_roots.begin(), wall_roots.end());
    for (const Span &s : tp.spans) {
        if (s.name != "pool.chunk")
            continue;
        // Count chunks that started inside a measured root.
        auto it = std::upper_bound(
            wall_roots.begin(), wall_roots.end(),
            std::make_pair(s.ts, std::numeric_limits<double>::infinity()));
        if (it == wall_roots.begin() || s.ts >= std::prev(it)->second)
            continue;
        ++chunk_count;
        chunk_us += s.dur;
    }
    forwards += shard_forwards;
    m.set("engine.forwards_per_decoded_token",
          decoded > 0 ? double(forwards) / decoded : 0.0, "ratio");

    m.set("moe.route.ms_per_token", msPerToken("moe.route"), "ms");
    m.set("moe.experts.ms_per_token", msPerToken("moe.experts"), "ms");
    double load_max = 0, load_sum = 0;
    for (const std::size_t c : work.experts) {
        load_max = std::max(load_max, double(c));
        load_sum += double(c);
    }
    m.set("moe.expert_load_max_over_mean",
          load_sum > 0 ? load_max / (load_sum / double(work.experts.size()))
                       : 0.0,
          "ratio");

    m.set("pool.chunks_per_token",
          decoded > 0 ? double(chunk_count) / decoded : 0.0, "count");
    m.set("pool.busy_frac",
          wall_root_us > 0
              ? chunk_us / (double(wl.threads()) * wall_root_us)
              : 0.0,
          "ratio");

    const NameTotals serve_step = total("serve.step");
    const NameTotals lap_span = total("bench.lap");
    const double serve_steps = double(serve_step.count);
    m.set("serve.steps", laps > 0 ? serve_steps / laps : 0.0, "count");
    std::size_t serve_batch = 0;
    for (const Span &s : tp.spans) {
        if (s.name == "serve.step")
            serve_batch += std::size_t(std::max<std::int64_t>(s.batch, 0));
    }
    m.set("serve.batch_mean",
          serve_steps > 0 ? double(serve_batch) / serve_steps : 0.0,
          "count");
    m.set("serve.overhead_ms_per_step",
          serve_steps > 0
              ? (lap_span.durUs - serve_step.durUs) / 1e3 / serve_steps
              : 0.0,
          "ms");
    m.set("serve.queue_wait_p50_ms",
          serve_steps > 0 ? queue_ms.percentile(50) : 0.0, "ms");

    m.set("prefix.hit_frac",
          hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0,
          "ratio");
    m.set("prefix.matched_token_frac",
          hits + misses > 0 && prompt_tokens > 0
              ? double(matched) / double(prompt_tokens)
              : 0.0,
          "ratio");
    const NameTotals lookup = total("serve.prefix_lookup");
    m.set("prefix.lookup_us_mean",
          lookup.count ? lookup.durUs / double(lookup.count) : 0.0, "us");
    m.set("kv.blocks_total", double(tp.kvBlocks), "count");

    // A router step waits for its slowest shard step; the shard steps
    // of one router step are the ones that start inside it.
    const NameTotals router_step = total("router.step");
    std::sort(shard_step_spans.begin(), shard_step_spans.end());
    double router_overhead_us = 0;
    for (const Span &s : tp.spans) {
        if (s.name != "router.step")
            continue;
        double slowest = 0;
        for (auto it = std::lower_bound(shard_step_spans.begin(),
                                        shard_step_spans.end(),
                                        std::make_pair(s.ts, 0.0));
             it != shard_step_spans.end() && it->first < s.ts + s.dur; ++it)
            slowest = std::max(slowest, it->second);
        router_overhead_us += s.dur - slowest;
    }
    m.set("router.steps",
          laps > 0 ? double(router_step.count) / laps : 0.0, "count");
    m.set("router.overhead_ms_per_step",
          router_step.count
              ? router_overhead_us / 1e3 / double(router_step.count)
              : 0.0,
          "ms");
    m.set("router.shard_step.ms_mean",
          shard_steps ? shard_step_us / 1e3 / double(shard_steps) : 0.0,
          "ms");
    const NameTotals probe = total("router.probe");
    m.set("router.probe_ms",
          probe.count ? probe.durUs / 1e3 / double(probe.count) : 0.0, "ms");
    m.set("router.queue_wait_steps_mean",
          router_step.count ? mean(queue_steps) : 0.0, "steps");
    m.set("router.shed", laps > 0 ? double(shed) / laps : 0.0, "count");
    m.set("router.cancelled", laps > 0 ? double(cancelled) / laps : 0.0,
          "count");
    m.set("router.retries", laps > 0 ? double(retries) / laps : 0.0,
          "count");

    std::vector<double> weights_s, construct_s, first_s;
    for (const SetupTimes &t : setups) {
        weights_s.push_back(t.weightsS);
        construct_s.push_back(t.constructS);
        first_s.push_back(t.firstForwardS);
    }
    m.set("setup.weights_s", median(weights_s), "s");
    m.set("setup.construct_s", median(construct_s), "s");
    m.set("setup.first_forward_s", median(first_s), "s");

    const double traced_tok_s = wall > 0 ? decoded / wall : 0.0;
    m.set("trace.overhead_frac",
          untraced_tok_s > 0 ? 1.0 - traced_tok_s / untraced_tok_s : 0.0,
          "ratio");

    // Where the measured roots' wall time goes, and the fold's
    // consistency: self times under a root sum to the root's duration.
    double root_us = 0, self_us = 0;
    for (const auto &[name, t] : totals) {
        self_us += t.selfUs;
        if (name == wall_root || name == "router.shard_step")
            root_us += t.durUs;
    }
    self_sum_frac = root_us > 0 ? self_us / root_us : 1.0;
    breakdown.beginObject();
    for (const auto &[name, t] : totals) {
        breakdown.key(name).beginObject();
        breakdown.field("count", t.count);
        breakdown.field("self_ms_per_token",
                        decoded > 0 ? t.selfUs / 1e3 / decoded : 0.0);
        breakdown.field("self_share", root_us > 0 ? t.selfUs / root_us : 0.0);
        breakdown.endObject();
    }
    breakdown.endObject();
}

int
run(const Options &opt)
{
    // Declared before the workload: traced serving objects borrow them
    // until the workload is destroyed.
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    obs::Sink sink;
    sink.trace = &tracer;
    sink.metrics = &registry;

    std::unique_ptr<Workload> wl =
        makeWorkload(opt.workload, opt.seed, opt.weightSeed);
    if (!wl)
        usage("unknown workload");

    std::vector<SetupTimes> setups;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep)
        setups.push_back(wl->setUp());

    const LapResult lap0 = wl->runLap(0);
    const std::string digest = transcriptDigest(lap0, wl->lapRequests(0));

    const auto timed_t0 = Clock::now();
    const std::vector<LapResult> laps = runTimedLaps(*wl, opt.seconds);
    const double timed_s = secondsSince(timed_t0);

    // Repeated laps must match lap 0 token for token; lap 0 (and, when
    // laps differ, every timed lap) is also sampled for solo re-decodes.
    Rng verify_rng(opt.seed ^ 0x7e51f1edULL);
    const VerifyResult verify = verifySolo(*wl, 0, lap0, verify_rng);
    std::size_t verified = verify.sampled, verify_mismatches =
                                               verify.mismatches;
    std::size_t lap_mismatches = 0;
    for (std::size_t k = 0; k < laps.size(); ++k) {
        if (wl->lapsRepeat()) {
            lap_mismatches += mismatches(laps[k], lap0);
            continue;
        }
        const VerifyResult v = verifySolo(*wl, k + 1, laps[k], verify_rng);
        verified += v.sampled;
        verify_mismatches += v.mismatches;
    }

    std::size_t attempted = verified, failed = verify_mismatches;
    std::size_t decoded = 0;
    double wall = 0;
    Sample ttft, tpot, request;
    for (const LapResult &lap : laps) {
        decoded += lap.decodedTokens();
        wall += lap.wallS;
        for (const RequestResult &r : lap.requests) {
            ++attempted;
            if (!r.completed) {
                ++failed;
                ttft.addMissed();
                tpot.addMissed();
                request.addMissed();
                continue;
            }
            ttft.add(r.ttftS * 1e3);
            request.add(r.latencyS * 1e3);
            if (r.tokens.size() > 1)
                tpot.add((r.latencyS - r.ttftS) * 1e3 /
                         double(r.tokens.size() - 1));
        }
    }
    failed += lap_mismatches;
    const double decode_tok_s = wall > 0 ? double(decoded) / wall : 0.0;

    TracedPhase tp;
    double self_sum_frac = 1.0;
    if (opt.trace) {
        wl->attachSink(&sink);
        const LapResult traced0 = wl->runLap(0);
        tp.lap0Requests = traced0.requests.size();
        tp.lap0Mismatches = mismatches(traced0, lap0);
        attempted += tp.lap0Requests;
        failed += tp.lap0Mismatches;
        const double from_us = tracer.nowMicros();
        tp.laps = runTimedLaps(*wl, opt.seconds / 2);
        tp.kvBlocks = wl->kvBlocks();
        tp.spans = foldTrace(tracer, from_us);
    }

    Metrics m;
    obs::JsonWriter breakdown(0);
    if (!opt.trace) {
        std::vector<double> setup_s;
        for (const SetupTimes &t : setups)
            setup_s.push_back(t.weightsS + t.constructS + t.firstForwardS);
        const auto ms = [&](double v) {
            return std::isinf(v) ? timed_s * 1e3 : v;
        };
        m.set("setup_s", median(setup_s), "s");
        m.set("decode_tok_s", decode_tok_s, "tok/s");
        m.set("goodput_tok_s", decode_tok_s, "tok/s");
        m.set("ttft_p50_ms", ms(ttft.percentile(50)), "ms");
        m.set("ttft_tail_ms", ms(ttft.percentile(ttft.tailPercentile())),
              "ms");
        m.set("tpot_p50_ms", ms(tpot.percentile(50)), "ms");
        m.set("tpot_tail_ms", ms(tpot.percentile(tpot.tailPercentile())),
              "ms");
        m.set("request_p50_ms", ms(request.percentile(50)), "ms");
        m.set("request_tail_ms",
              ms(request.percentile(request.tailPercentile())), "ms");
        m.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        perLayerMetrics(m, *wl, tp, lap0, verify, setups, decode_tok_s,
                        self_sum_frac, breakdown);
    }
    const bool self_sum_ok =
        !opt.trace || std::fabs(self_sum_frac - 1.0) <= kSelfSumTolerance;

    obs::JsonWriter w(0);
    w.beginObject();
    w.field("workload", wl->name());
    w.field("seed", opt.seed);
    w.field("weight_seed", opt.weightSeed);
    w.field("seconds", opt.seconds);
    w.field("trace", opt.trace);

    w.key("host").beginObject();
    w.field("cpu_model", cpuModel());
    w.field("online_cores", std::size_t(sysconf(_SC_NPROCESSORS_ONLN)));
    w.field("simd_tier", hnSimdLevelName());
    w.field("compiler", HNBENCH_COMPILER);
    w.field("flags", HNBENCH_FLAGS);
    w.field("build_type", HNBENCH_BUILD_TYPE);
    w.field("git_sha", opt.gitSha);
    w.field("threads", wl->threads());
    w.field("threads_pinned", wl->pinned());
    w.endObject();

    w.key("config").beginObject();
    wl->describe(w);
    w.endObject();

    w.field("setup_reps", setups.size());
    w.field("timed_laps", laps.size());
    w.key("lap_tok_s").beginArray();
    for (const LapResult &lap : laps)
        w.value(lap.wallS > 0 ? double(lap.decodedTokens()) / lap.wallS : 0.0);
    w.endArray();
    w.field("timed_seconds", timed_s);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.field("failed_frac", double(failed) / double(attempted));
    w.field("digest", digest);
    w.key("checks").beginObject();
    w.field("lap_mismatches", lap_mismatches);
    w.field("solo_redecode_sampled", verified);
    w.field("solo_redecode_mismatches", verify_mismatches);
    if (opt.trace) {
        w.field("traced_lap0_mismatches", tp.lap0Mismatches);
        w.field("self_time_sum_over_root_wall", self_sum_frac);
    }
    w.endObject();

    w.key("tail").beginObject();
    for (const auto &[name, s] :
         {std::pair<const char *, const Sample *>{"ttft", &ttft},
          {"tpot", &tpot},
          {"request", &request}}) {
        w.key(name).beginObject();
        w.field("percentile", s->tailPercentile());
        w.field("samples", s->size());
        w.endObject();
    }
    w.endObject();

    w.key("metrics");
    m.write(w);
    if (opt.trace)
        w.key("breakdown").rawValue(breakdown.str());
    const bool correct = lap_mismatches == 0 && verify_mismatches == 0 &&
                         tp.lap0Mismatches == 0 && self_sum_ok;
    w.field("correct", correct);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return run(parseOptions(argc, argv));
}
