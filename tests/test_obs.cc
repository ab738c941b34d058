/**
 * @file
 * Observability subsystem tests: JsonWriter structure/escaping (every
 * document is parsed back by obs::JsonReader, not just
 * substring-checked), MetricsRegistry thread-safety under the pool,
 * Chrome-trace parse-back, and the core invariant that observation is
 * pure: a traced serving run decodes bit-identical tokens and a traced
 * PipelineSim reproduces the untraced result exactly.
 *
 * Registered under ctest label `obs`; scripts/tier1.sh runs it, like
 * every test, under ThreadSanitizer (counters, the tracer mutex and the
 * pool chunk observer are all hit from every worker thread).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "model/model_zoo.hh"
#include "noc/fabric.hh"
#include "obs/json.hh"
#include "obs/json_reader.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pipeline/pipeline_sim.hh"
#include "sim/stats.hh"
#include "xformer/engine.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"

namespace hnlpu {
namespace {

/**
 * Parse an emitted document with obs::JsonReader: the tests verify
 * emitted documents against RFC 8259 as read by different code, not
 * against the writer's own idea of itself.  A malformed document is
 * fatal with its line and column.
 */
obs::JsonValue
parseJson(const std::string &text)
{
    return obs::JsonReader::parseOrDie(text, "emitted document");
}

// -- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, EscapingAndNestingRoundTrip)
{
    obs::JsonWriter w(0);
    w.beginObject();
    w.field("plain", "hello");
    w.field("tricky", "q\" b\\ nl\n tab\t bell\x07 end");
    w.field("count", 42);
    w.field("negative", -7);
    w.field("big", std::uint64_t(1) << 63);
    w.field("ratio", 0.25);
    w.field("flag", true);
    w.field("nan_is_null", std::nan(""));
    w.key("nested").beginArray();
    w.value(1).value(2);
    w.beginObject().field("deep", "yes").endObject();
    w.beginArray().endArray();
    w.endArray();
    w.endObject();

    const obs::JsonValue doc = parseJson(w.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["plain"].asString(), "hello");
    EXPECT_EQ(doc["tricky"].asString(), "q\" b\\ nl\n tab\t bell\x07 end");
    EXPECT_EQ(doc["count"].asDouble(), 42.0);
    EXPECT_EQ(doc["negative"].asDouble(), -7.0);
    EXPECT_EQ(doc["big"].asDouble(), std::pow(2.0, 63));
    EXPECT_EQ(doc["ratio"].asDouble(), 0.25);
    EXPECT_TRUE(doc["flag"].asBool());
    EXPECT_TRUE(doc["nan_is_null"].isNull());
    const obs::JsonValue &nested = doc["nested"];
    ASSERT_TRUE(nested.isArray());
    ASSERT_EQ(nested.size(), 4u);
    EXPECT_EQ(nested.at(2)["deep"].asString(), "yes");
    EXPECT_EQ(nested.at(3).size(), 0u);
}

TEST(JsonWriter, PrettyPrintedDocumentParses)
{
    obs::JsonWriter w(2);
    w.beginObject();
    w.key("rows").beginArray();
    for (int i = 0; i < 3; ++i)
        w.beginObject().field("i", i).endObject();
    w.endArray();
    w.endObject();

    const obs::JsonValue doc = parseJson(w.str());
    ASSERT_EQ(doc["rows"].size(), 3u);
    EXPECT_EQ(doc["rows"].at(2)["i"].asDouble(), 2.0);
}

// -- Histogram::fromSamples ------------------------------------------------

TEST(HistogramFromSamples, QuantilesMonotoneAndWithinSampleRange)
{
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i)
        samples.push_back(0.001 * double(i));
    const Histogram h = Histogram::fromSamples(samples, 4096);
    double prev = h.quantile(0.0);
    for (double q : {0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev) << "q " << q;
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 0.999 + 1e-6);
        prev = v;
    }
    // The median of a uniform ramp sits near the middle of the range.
    EXPECT_NEAR(h.quantile(0.5), 0.4995, 0.01);

    // Degenerate inputs must not fault.
    EXPECT_EQ(Histogram::fromSamples({}, 16).quantile(0.5), 0.0);
    const Histogram single = Histogram::fromSamples({3.0}, 16);
    EXPECT_NEAR(single.quantile(0.5), 3.0, 1e-6);
}

// -- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndThreadSafeUnderPool)
{
    obs::MetricsRegistry reg;
    obs::Counter *const c = reg.counter("test.events");
    ASSERT_EQ(reg.counter("test.events"), c) << "handle must be stable";
    obs::LatencyHistogram *const h = reg.latency("test.seconds");

    ThreadPool pool(4);
    const std::size_t n = 20000;
    pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            c->add(1);
            // Concurrent create-on-first-use races on the same name.
            reg.counter("test.contended")->add(1);
            h->observe(1e-6 * double(i % 7));
        }
    });
    EXPECT_EQ(c->value(), n);
    EXPECT_EQ(reg.counter("test.contended")->value(), n);
    EXPECT_EQ(h->count(), n);
    EXPECT_GE(h->max(), h->min());

    reg.gauge("test.depth")->set(5.0);
    EXPECT_EQ(reg.gauge("test.depth")->value(), 5.0);

    reg.reset();
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(h->count(), 0u);
    EXPECT_EQ(reg.gauge("test.depth")->value(), 0.0);
}

TEST(MetricsRegistry, ToJsonSnapshotsMetricsAndWarnSites)
{
    obs::MetricsRegistry reg;
    reg.counter("a.count")->add(3);
    reg.gauge("a.depth")->set(2.5);
    obs::LatencyHistogram *h = reg.latency("a.seconds");
    for (int i = 1; i <= 10; ++i)
        h->observe(0.01 * i);

    // Trip a hnlpu_warn_ratelimited site so warn_sites is non-empty
    // (markChipDead warns once per dead chip).
    Fabric fabric(2, 2, CxlLinkParams{});
    fabric.markChipDead(3);

    const obs::JsonValue doc = parseJson(reg.toJson());
    EXPECT_EQ(doc["counters"]["a.count"].asDouble(), 3.0);
    EXPECT_EQ(doc["gauges"]["a.depth"].asDouble(), 2.5);
    const obs::JsonValue &lat = doc["latencies"]["a.seconds"];
    EXPECT_EQ(lat["count"].asDouble(), 10.0);
    EXPECT_NEAR(lat["mean_seconds"].asDouble(), 0.055, 1e-9);
    EXPECT_EQ(lat["min_seconds"].asDouble(), 0.01);
    EXPECT_EQ(lat["max_seconds"].asDouble(), 0.1);
    EXPECT_LE(lat["p50_seconds"].asDouble(),
              lat["p95_seconds"].asDouble());
    EXPECT_LE(lat["p95_seconds"].asDouble(),
              lat["p99_seconds"].asDouble());

    const obs::JsonValue &sites = doc["warn_sites"];
    ASSERT_TRUE(sites.isObject());
    bool fabric_site = false;
    for (const auto &[key, count] : sites.members()) {
        if (key.find("fabric.cc") != std::string::npos) {
            fabric_site = true;
            EXPECT_GE(count.asDouble(), 1.0);
        }
    }
    EXPECT_TRUE(fabric_site)
        << "fabric.cc warn site missing from registry JSON";
}

// -- Tracer ----------------------------------------------------------------

TEST(Tracer, MultiThreadedSpansParseBackAsChromeTraceEvents)
{
    obs::Tracer tracer;

    {
        // Null tracer: spans are a no-op, not a crash.
        obs::ScopedSpan disabled(nullptr, "x", "y");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);

    ThreadPool pool(4);
    const std::size_t n = 64;
    pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            obs::JsonWriter args(0);
            args.beginObject().field("i", i).endObject();
            obs::ScopedSpan span(&tracer, "test", "test.span",
                                 args.str());
        }
    });
    EXPECT_EQ(tracer.eventCount(), n);

    const obs::JsonValue doc = parseJson(tracer.toJson(2));
    EXPECT_EQ(doc["displayTimeUnit"].asString(), "ms");
    const obs::JsonValue &events = doc["traceEvents"];
    ASSERT_EQ(events.size(), n);
    std::set<double> seen_args;
    for (const obs::JsonValue &ev : events.elements()) {
        EXPECT_EQ(ev["ph"].asString(), "X");
        EXPECT_EQ(ev["pid"].asDouble(), 0.0);
        EXPECT_EQ(ev["cat"].asString(), "test");
        EXPECT_EQ(ev["name"].asString(), "test.span");
        EXPECT_GE(ev["ts"].asDouble(), 0.0);
        EXPECT_GE(ev["dur"].asDouble(), 0.0);
        EXPECT_GE(ev["tid"].asDouble(), 0.0);
        seen_args.insert(ev["args"]["i"].asDouble());
    }
    EXPECT_EQ(seen_args.size(), n) << "every index traced exactly once";
}

// -- serving under a full sink ---------------------------------------------

TEST(Serving, TracedRunBitIdenticalAndSpansFourSubsystems)
{
    const auto cfg = tinyTestModel();
    const auto weights = ModelWeights::randomInit(cfg, 77);

    const std::vector<std::vector<std::size_t>> prompts{
        {1, 5, 9}, {2}, {7, 3}, {4, 8, 12}};
    const std::vector<std::size_t> decodes{4, 6, 2, 5};

    auto serve = [&](const obs::Sink *sink) {
        ExecOptions exec;
        exec.threads = 2;
        exec.sink = sink;
        Engine engine(cfg, weights, ExecPath::Reference, 8, exec);
        ServingEngine serving(engine, 2);
        for (std::size_t i = 0; i < prompts.size(); ++i) {
            ServingRequest req;
            req.prompt = prompts[i];
            req.decodeTokens = decodes[i];
            req.seed = i;
            EXPECT_TRUE(serving.tryEnqueue(req).admitted());
        }
        const auto outcomes = serving.run();
        std::vector<std::vector<std::size_t>> tokens;
        for (const auto &out : outcomes)
            tokens.push_back(out.tokens);
        return std::make_pair(tokens, serving.stats());
    };

    const auto [plain_tokens, plain_stats] = serve(nullptr);

    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::Sink sink;
    sink.trace = &tracer;
    sink.metrics = &metrics;
    const auto [traced_tokens, traced_stats] = serve(&sink);

    // Observation is pure: bit-identical tokens, identical step clock.
    EXPECT_EQ(traced_tokens, plain_tokens);
    EXPECT_EQ(traced_stats.executedSteps, plain_stats.executedSteps);
    EXPECT_EQ(traced_stats.forwards, plain_stats.forwards);
    EXPECT_EQ(traced_stats.decodedTokens, plain_stats.decodedTokens);

    // The registry mirrors the run's stats exactly.
    EXPECT_EQ(metrics.counter("serving.steps")->value(),
              traced_stats.executedSteps);
    EXPECT_EQ(metrics.counter("serving.forwards")->value(),
              traced_stats.forwards);
    EXPECT_EQ(metrics.counter("serving.decoded_tokens")->value(),
              traced_stats.decodedTokens);
    EXPECT_EQ(metrics.latency("serving.step_seconds")->count(),
              traced_stats.executedSteps);
    EXPECT_EQ(metrics.latency("serving.ttft_seconds")->count(),
              prompts.size());

    // The trace covers the whole stack: scheduler, engine layers,
    // MoE routing and the thread pool's chunks.
    const obs::JsonValue doc = parseJson(tracer.toJson());
    std::set<std::string> cats, names;
    for (const obs::JsonValue &ev : doc["traceEvents"].elements()) {
        cats.insert(ev["cat"].asString());
        names.insert(ev["name"].asString());
    }
    for (const char *cat : {"serving", "engine", "moe", "pool"})
        EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
    for (const char *name :
         {"serve.step", "engine.layer", "engine.attention",
          "engine.unembed", "moe.route", "moe.experts", "pool.chunk"})
        EXPECT_TRUE(names.count(name)) << "missing span " << name;

    // metricsJson is parseable and schema-stable.
    ExecOptions exec;
    Engine engine(cfg, weights, ExecPath::Reference, 8, exec);
    ServingEngine serving(engine, 1);
    ServingRequest req;
    req.prompt = {1};
    req.decodeTokens = 2;
    ASSERT_TRUE(serving.tryEnqueue(req).admitted());
    serving.run();
    const obs::JsonValue mj = parseJson(serving.metricsJson());
    EXPECT_EQ(mj["requests"].asDouble(), 1.0);
    EXPECT_EQ(mj["requests_detail"].size(), 1u);
}

// -- PipelineSim tracing ---------------------------------------------------

TEST(PipelineSim, SimulatedTimeTraceIsPureObservation)
{
    auto cfg = defaultGptOssPipeline(2048);
    cfg.warmupTokens = 10;
    cfg.measuredTokens = 30;

    const PipelineResult plain = PipelineSim(cfg).run();

    obs::Tracer tracer;
    cfg.trace = &tracer;
    const PipelineResult traced = PipelineSim(cfg).run();

    EXPECT_EQ(traced.tokensPerSecond, plain.tokensPerSecond);
    EXPECT_EQ(traced.tokenLatency, plain.tokenLatency);
    EXPECT_EQ(traced.breakdown.comm, plain.breakdown.comm);
    EXPECT_EQ(traced.breakdown.projection, plain.breakdown.projection);
    EXPECT_EQ(traced.breakdown.stall, plain.breakdown.stall);
    EXPECT_EQ(traced.simulatedTokens, plain.simulatedTokens);

    ASSERT_GT(tracer.eventCount(), 0u);
    const obs::JsonValue doc = parseJson(tracer.toJson());
    std::set<std::string> names;
    bool token_args = false;
    for (const obs::JsonValue &ev : doc["traceEvents"].elements()) {
        EXPECT_EQ(ev["cat"].asString(), "pipeline");
        EXPECT_GT(ev["dur"].asDouble(), 0.0)
            << "zero-length ops are not emitted";
        names.insert(ev["name"].asString());
        if (const obs::JsonValue *args = ev.find("args"))
            token_args = token_args || args->find("token") != nullptr;
    }
    EXPECT_TRUE(token_args);
    // Unit and link resources both appear (hn_qkv0 / col0 exist in any
    // multi-chip default partition).
    EXPECT_TRUE(names.count("hn_qkv0"));
    EXPECT_TRUE(names.count("col0"));
}

// -- Fabric counters -------------------------------------------------------

TEST(Fabric, RegistryCountersMirrorFabricAccessors)
{
    obs::MetricsRegistry reg;
    Fabric fabric(2, 2, CxlLinkParams{});
    fabric.setMetrics(&reg);

    LinkFaultParams faults;
    faults.seed = 9;
    faults.retryProbability = 0.5;
    faults.maxRetries = 1;
    fabric.setLinkFaults(faults);

    Tick at = 0;
    std::uint64_t sends = 0;
    for (int round = 0; round < 40; ++round) {
        at = fabric.send(0, 1, 4096.0, at);
        at = fabric.send(0, 2, 4096.0, at);
        sends += 2;
    }
    // 0->3 shares no row/column: sendRouted takes two hops through a
    // live corner and counts one reroute plus two sends.
    at = fabric.sendRouted(0, 3, 4096.0, at);
    sends += 2;

    EXPECT_GT(fabric.totalRetries(), 0u) << "p=0.5 never retried?";
    EXPECT_EQ(reg.counter("noc.sends")->value(), sends);
    EXPECT_EQ(reg.counter("noc.retries")->value(),
              fabric.totalRetries());
    EXPECT_EQ(reg.counter("noc.retry_timeouts")->value(),
              fabric.retryTimeouts());
    EXPECT_EQ(reg.counter("noc.rerouted")->value(), 1u);
    EXPECT_EQ(fabric.reroutedMessages(), 1u);

    // Detach: further traffic leaves the registry untouched.
    fabric.setMetrics(nullptr);
    const std::uint64_t frozen = reg.counter("noc.sends")->value();
    fabric.send(0, 1, 4096.0, at);
    EXPECT_EQ(reg.counter("noc.sends")->value(), frozen);
}

} // namespace
} // namespace hnlpu
