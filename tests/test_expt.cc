/**
 * @file
 * Experiment-driver and multi-tenant LoRA serving tests (ctest label
 * `expt`; no death tests here -- the fatal-accessor paths are exercised
 * via JsonReader::parse's non-fatal Result instead).
 *
 * Pins, in order:
 *  - obs::JsonReader round-trips obs::JsonWriter documents byte-for-byte
 *    and reports malformed input with exact line/column positions;
 *  - the tenant-weighted trace generator perturbs nothing but tenantId
 *    (multi-tenant workloads replay the single-tenant schedule);
 *  - the builtin experiment registry is byte-identical to the shipped
 *    examples/expt/ files and every builtin parses and expands;
 *  - smoke runs of every builtin scenario, and full-size runs of two
 *    (where admission order and prefix reuse show), reproduce
 *    recorded schedules;
 *  - matrix expansion and the report are deterministic: two runs of one
 *    experiment (timing off) produce byte-identical JSON;
 *  - a tenant's decoded tokens under multi-tenant continuous batching
 *    are bit-identical to a solo Engine::generate with that adapter
 *    installed -- across kernels, thread counts, and (on the router) a
 *    mid-run spare-row-repairable fault;
 *  - a prefix-cache hit never crosses tenants, even for identical
 *    prompts;
 *  - unknown tenants are refused at enqueue with a typed reason, never
 *    an abort.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "expt/experiment.hh"
#include "expt/workload.hh"
#include "model/model_zoo.hh"
#include "obs/json.hh"
#include "obs/json_reader.hh"
#include "serve/router.hh"
#include "xformer/engine.hh"
#include "xformer/prefix_cache.hh"
#include "xformer/serving.hh"
#include "xformer/weights.hh"

namespace hnlpu {
namespace {

// -- JsonReader: the read-side dual of JsonWriter -------------------------

/** Re-emit a parsed DOM through a JsonWriter (numbers via asDouble:
 *  both sides use shortest-round-trip formatting, so the text is
 *  reproduced exactly). */
void
reemit(const obs::JsonValue &v, obs::JsonWriter &w)
{
    switch (v.type()) {
    case obs::JsonValue::Type::Null:
        w.rawValue("null");
        break;
    case obs::JsonValue::Type::Bool:
        w.value(v.asBool());
        break;
    case obs::JsonValue::Type::Number:
        w.value(v.asDouble());
        break;
    case obs::JsonValue::Type::String:
        w.value(v.asString());
        break;
    case obs::JsonValue::Type::Array:
        w.beginArray();
        for (const obs::JsonValue &e : v.elements())
            reemit(e, w);
        w.endArray();
        break;
    case obs::JsonValue::Type::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            reemit(member, w);
        }
        w.endObject();
        break;
    }
}

TEST(JsonReader, RoundTripsJsonWriterDocuments)
{
    for (int indent : {0, 2}) {
        obs::JsonWriter w(indent);
        w.beginObject();
        w.field("name", "round\"trip\\doc\nline2");
        w.field("count", 17);
        w.field("negative", -3);
        w.field("ratio", 0.5);
        w.field("small", 0.001);
        w.field("on", true);
        w.field("off", false);
        w.key("null_member").rawValue("null");
        w.key("empty_array").beginArray().endArray();
        w.key("empty_object").beginObject().endObject();
        w.key("nested").beginArray();
        w.beginObject().field("k", 1).endObject();
        w.beginArray().value(1).value(2).value(3).endArray();
        w.endArray();
        w.endObject();

        const obs::JsonReader::Result parsed =
            obs::JsonReader::parse(w.str());
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        EXPECT_EQ((*parsed.value)["count"].asUint(), 17u);
        EXPECT_EQ((*parsed.value)["negative"].asInt(), -3);
        EXPECT_EQ((*parsed.value)["name"].asString(),
                  "round\"trip\\doc\nline2");
        EXPECT_TRUE((*parsed.value)["null_member"].isNull());

        obs::JsonWriter w2(indent);
        reemit(*parsed.value, w2);
        EXPECT_EQ(w.str(), w2.str()) << "indent " << indent;
    }
}

TEST(JsonReader, ReportsMalformedInputPositions)
{
    struct Case
    {
        const char *text;
        std::size_t line;
        std::size_t column;
    };
    const Case cases[] = {
        // Invalid literal ("tru" is not "true").
        {"[1, tru]", 1, 8},
        // Missing comma between members.
        {"{\"a\": 1 \"b\": 2}", 1, 10},
        // Trailing garbage after the document.
        {"{\"a\": 1}x", 1, 9},
        // Duplicate key, reported at the second occurrence.
        {"{\n  \"a\": 1,\n  \"a\": 2\n}", 3, 3},
        // Truncated document.
        {"{\"a\": [1, 2", 1, 12},
    };
    for (const Case &c : cases) {
        const obs::JsonReader::Result r = obs::JsonReader::parse(c.text);
        ASSERT_FALSE(r.ok()) << c.text;
        EXPECT_FALSE(r.error.empty()) << c.text;
        EXPECT_EQ(r.line, c.line) << c.text << ": " << r.error;
        EXPECT_EQ(r.column, c.column) << c.text << ": " << r.error;
    }
}

// -- Tenant-weighted trace generation -------------------------------------

TEST(Workload, TenantSplitPerturbsOnlyTenantIds)
{
    expt::TraceConfig base;
    base.vocabSize = 97;
    base.requests = 12;
    base.seed = 5;
    base.paretoArrivals = true;
    base.decodeBase = 2;
    base.paretoDecode = true;
    base.promptBase = 3;
    base.promptMod = 4;
    base.classMix = true;
    const auto solo = expt::makeServingTrace(base);

    expt::TraceConfig split = base;
    split.tenantIds = {1, 2, 7};
    split.tenantWeights = {2.0, 1.0, 1.0};
    const auto multi = expt::makeServingTrace(split);

    ASSERT_EQ(solo.size(), multi.size());
    std::size_t counts[8] = {};
    for (std::size_t i = 0; i < solo.size(); ++i) {
        // Everything but tenantId replays the single-tenant trace: the
        // tenant split draws nothing from the RNG.
        EXPECT_EQ(solo[i].prompt, multi[i].prompt);
        EXPECT_EQ(solo[i].decodeTokens, multi[i].decodeTokens);
        EXPECT_EQ(solo[i].arrivalStep, multi[i].arrivalStep);
        EXPECT_EQ(solo[i].seed, multi[i].seed);
        EXPECT_EQ(solo[i].tenantId, 0u);
        counts[multi[i].tenantId]++;
    }
    // 2:1:1 weights over 12 requests: exact shares, interleaved (the
    // first four requests already cover all three tenants).
    EXPECT_EQ(counts[1], 6u);
    EXPECT_EQ(counts[2], 3u);
    EXPECT_EQ(counts[7], 3u);
    EXPECT_EQ(multi[0].tenantId, 1u);
    EXPECT_NE(multi[1].tenantId, multi[0].tenantId);
}

// -- Builtin registry ------------------------------------------------------

TEST(Builtins, RegistryIsByteIdenticalToExampleFiles)
{
    ASSERT_GE(expt::builtinExperiments().size(), 3u);
    for (const expt::NamedExperiment &e : expt::builtinExperiments()) {
        std::ifstream in(std::string(HNLPU_SOURCE_DIR) + "/" + e.file,
                         std::ios::binary);
        ASSERT_TRUE(in.good()) << e.file;
        std::ostringstream content;
        content << in.rdbuf();
        EXPECT_EQ(content.str(), e.json) << e.file;
    }
}

TEST(Builtins, EveryBuiltinParsesAndExpands)
{
    for (const expt::NamedExperiment &e : expt::builtinExperiments()) {
        const expt::Experiment ex = expt::parseExperiment(
            obs::JsonReader::parseOrDie(e.json, e.name), e.name);
        EXPECT_EQ(ex.name, e.name);
        EXPECT_FALSE(ex.scenarios.empty()) << e.name;
        EXPECT_NE(expt::findBuiltinExperiment(e.name), nullptr);
    }
    // The matrix expands as a full cross product: lora_tenant_mix is
    // 1 workload x 2 engines x 1 (default solo) fleet x 3 tenant sets.
    const expt::NamedExperiment *mix =
        expt::findBuiltinExperiment("lora_tenant_mix");
    ASSERT_NE(mix, nullptr);
    const expt::Experiment ex = expt::parseExperiment(
        obs::JsonReader::parseOrDie(mix->json, mix->name), mix->name);
    EXPECT_EQ(ex.scenarios.size(), 6u);
    EXPECT_EQ(ex.scenarios.front().name,
              "steady/hw_packed/solo/tenants1");
    EXPECT_EQ(expt::findBuiltinExperiment("no_such_experiment"),
              nullptr);
}

/** Schedule and transcript fields of one builtin scenario, recorded
 *  from a smoke-sized run with timing off. */
struct ScenarioPin
{
    const char *experiment;
    const char *scenario;
    const char *transcriptFnv;
    std::size_t executedSteps;
    std::size_t enqueued;
    std::size_t completed;
    std::size_t shed;
    std::size_t cancelled;
    std::size_t prefixHits;
    std::size_t prefixMisses;
    std::size_t prefixMatchedTokens;
};

const ScenarioPin kBuiltinPins[] = {
    {"lora_tenant_mix",
     "steady/hw_packed/solo/tenants1",
     "0x8426495faff23895", 22, 6, 6, 0, 0, 0, 6, 0},
    {"lora_tenant_mix",
     "steady/hw_packed/solo/tenants4",
     "0x5d92c72925f50402", 22, 6, 6, 0, 0, 0, 6, 0},
    {"lora_tenant_mix",
     "steady/hw_packed/solo/tenants16",
     "0x7efaa3afe96fa48f", 22, 6, 6, 0, 0, 0, 6, 0},
    {"lora_tenant_mix",
     "steady/reference/solo/tenants1",
     "0x56e4015666ead2ff", 22, 6, 6, 0, 0, 0, 6, 0},
    {"lora_tenant_mix",
     "steady/reference/solo/tenants4",
     "0x2af39904d9fd36fa", 22, 6, 6, 0, 0, 0, 6, 0},
    {"lora_tenant_mix",
     "steady/reference/solo/tenants16",
     "0x37873b2388c03259", 22, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "prefill_heavy/slots1/solo/base",
     "0x3129d9a3044a27cc", 165, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "prefill_heavy/slots4/solo/base",
     "0x3129d9a3044a27cc", 56, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "prefill_heavy/slots8_threads2/solo/base",
     "0x3129d9a3044a27cc", 30, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "decode_heavy/slots1/solo/base",
     "0xcaf656b8a6004857", 88, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "decode_heavy/slots4/solo/base",
     "0xcaf656b8a6004857", 29, 6, 6, 0, 0, 0, 6, 0},
    {"prefill_decode_sweep",
     "decode_heavy/slots8_threads2/solo/base",
     "0xcaf656b8a6004857", 16, 6, 6, 0, 0, 0, 6, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_on/calm/two_tenants",
     "0x41aceef04e639c8c", 42, 6, 6, 0, 0, 0, 6, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_on/repairable/two_tenants",
     "0x41aceef04e639c8c", 42, 6, 6, 0, 0, 0, 6, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_on/lossy_then_kill/two_tenants",
     "0x41aceef04e639c8c", 50, 6, 6, 0, 0, 0, 7, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_off/calm/two_tenants",
     "0x41aceef04e639c8c", 42, 6, 6, 0, 0, 0, 0, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_off/repairable/two_tenants",
     "0x41aceef04e639c8c", 42, 6, 6, 0, 0, 0, 0, 0},
    {"prefix_fault_sweep",
     "shared60/prefix_off/lossy_then_kill/two_tenants",
     "0x41aceef04e639c8c", 50, 6, 6, 0, 0, 0, 0, 0},
};

TEST(Builtins, SmokeRunsMatchRecordedSchedules)
{
    // Fixed values, not run-vs-run agreement: a change to how the
    // driver builds or steps a scenario's front end shows up here as a
    // different schedule, digest or prefix count.
    expt::RunOptions opt;
    opt.smoke = true;
    opt.includeTiming = false;
    std::size_t checked = 0;
    for (const char *name : {"lora_tenant_mix", "prefill_decode_sweep",
                             "prefix_fault_sweep"}) {
        const expt::NamedExperiment *e =
            expt::findBuiltinExperiment(name);
        ASSERT_NE(e, nullptr) << name;
        const obs::JsonValue report = obs::JsonReader::parseOrDie(
            expt::runExperiment(
                expt::parseExperiment(
                    obs::JsonReader::parseOrDie(e->json, name), name),
                opt),
            "report");
        for (const obs::JsonValue &sc : report["scenarios"].elements()) {
            const std::string scenario = sc["name"].asString();
            const obs::JsonValue &prefix = sc["prefix"];
            std::ostringstream actual;
            actual << "{\"" << name << "\", \"" << scenario << "\", \""
                   << sc["transcript_fnv"].asString() << "\", "
                   << sc["executed_steps"].asUint() << ", "
                   << sc["enqueued"].asUint() << ", "
                   << sc["completed"].asUint() << ", "
                   << sc["shed"].asUint() << ", "
                   << sc["cancelled"].asUint() << ", "
                   << prefix["hits"].asUint() << ", "
                   << prefix["misses"].asUint() << ", "
                   << prefix["matched_tokens"].asUint() << "}";
            const ScenarioPin *pin = nullptr;
            for (const ScenarioPin &p : kBuiltinPins)
                if (name == std::string(p.experiment) &&
                    scenario == p.scenario)
                    pin = &p;
            if (pin == nullptr) {
                ADD_FAILURE() << "no pin for " << actual.str();
                continue;
            }
            std::ostringstream want;
            want << "{\"" << pin->experiment << "\", \""
                 << pin->scenario << "\", \"" << pin->transcriptFnv
                 << "\", " << pin->executedSteps << ", "
                 << pin->enqueued << ", " << pin->completed << ", "
                 << pin->shed << ", " << pin->cancelled << ", "
                 << pin->prefixHits << ", " << pin->prefixMisses << ", "
                 << pin->prefixMatchedTokens << "}";
            EXPECT_EQ(actual.str(), want.str());
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kBuiltinPins));
}

/** One tenant's completions and summed TTFT steps in a full-size run. */
struct TenantPin
{
    std::size_t tenant;
    std::size_t completed;
    std::size_t ttftStepsSum;
};

/** A builtin scenario run at full size: smoke traces (6 requests) see
 *  neither admission order nor prefix reuse, these do. */
struct FullSizePin
{
    const char *experiment;
    const char *scenario;
    const char *transcriptFnv;
    std::size_t executedSteps;
    std::size_t prefixHits;
    std::size_t prefixMatchedTokens;
    std::vector<TenantPin> tenants;
};

TEST(Builtins, FullSizeRunsMatchRecordedSchedules)
{
    // lora_tenant_mix's class mix only reaches the router on a sharded
    // fleet: a solo scenario that admitted interactive requests first
    // would move the tenants' TTFT.  The prefix_fault_sweep scenario
    // adopts cached prefixes across a repaired shard.
    const FullSizePin pins[] = {
        {"lora_tenant_mix", "steady/hw_packed/solo/tenants4",
         "0xa3b5f977908aa4d2", 68, 0, 0,
         {{1, 12, 402}, {2, 6, 201}, {3, 3, 86}, {4, 3, 111}}},
        {"prefix_fault_sweep", "shared60/prefix_on/repairable/two_tenants",
         "0xf326aefc80168815", 92, 6, 144, {{1, 15, 524}, {2, 5, 184}}},
    };
    expt::RunOptions opt;
    opt.includeTiming = false;
    for (const FullSizePin &pin : pins) {
        SCOPED_TRACE(pin.scenario);
        const expt::NamedExperiment *e =
            expt::findBuiltinExperiment(pin.experiment);
        ASSERT_NE(e, nullptr);
        expt::Experiment ex = expt::parseExperiment(
            obs::JsonReader::parseOrDie(e->json, e->name), e->name);
        std::erase_if(ex.scenarios, [&](const expt::Scenario &sc) {
            return sc.name != pin.scenario;
        });
        ASSERT_EQ(ex.scenarios.size(), 1u);
        const obs::JsonValue report = obs::JsonReader::parseOrDie(
            expt::runExperiment(ex, opt), "report");
        const obs::JsonValue &sc = report["scenarios"].at(0);
        EXPECT_EQ(sc["transcript_fnv"].asString(), pin.transcriptFnv);
        EXPECT_EQ(sc["executed_steps"].asUint(), pin.executedSteps);
        EXPECT_EQ(sc["prefix"]["hits"].asUint(), pin.prefixHits);
        EXPECT_EQ(sc["prefix"]["matched_tokens"].asUint(),
                  pin.prefixMatchedTokens);
        const obs::JsonValue &tenants = sc["tenant_breakdown"];
        ASSERT_EQ(tenants.size(), pin.tenants.size());
        for (std::size_t i = 0; i < pin.tenants.size(); ++i) {
            const TenantPin &want = pin.tenants[i];
            const obs::JsonValue &got = tenants.at(i);
            EXPECT_EQ(got["tenant"].asUint(), want.tenant);
            EXPECT_EQ(got["completed"].asUint(), want.completed);
            EXPECT_EQ(got["ttft_steps_mean"].asDouble(),
                      double(want.ttftStepsSum) / double(want.completed))
                << "tenant " << want.tenant;
        }
    }
}

// -- Matrix-expansion and report determinism ------------------------------

const char *const kDeterminismConfig = R"json({
  "name": "determinism_pin",
  "model": {"hidden": 64, "layers": 1, "query_heads": 4, "kv_heads": 2,
            "head_dim": 16, "vocab": 128, "experts": 4,
            "active_experts": 2, "expert_hidden": 64},
  "matrix": {
    "workload": [
      {"name": "mixed", "requests": 6, "seed": 2, "pareto_arrivals": true,
       "decode_base": 3, "prompt_base": 3, "prompt_mod": 3,
       "class_mix": true}
    ],
    "engine": [
      {"name": "ref", "path": "reference", "batch_slots": 2}
    ],
    "fleet": [
      {"name": "solo"},
      {"name": "sharded", "shards": 2, "faults": [
        {"step": 4, "shard": 0, "dead_row_rate": 0.005,
         "spare_rows": 128, "seed": 9}
      ]}
    ],
    "tenants": [
      {"name": "pair", "tenants": [
        {"id": 1, "rank": 2, "seed": 11, "weight": 2.0},
        {"id": 2, "rank": 2, "seed": 12}
      ]}
    ]
  }
})json";

TEST(Driver, ReportIsByteIdenticalAcrossRunsWithTimingOff)
{
    const expt::Experiment ex = expt::parseExperiment(
        obs::JsonReader::parseOrDie(kDeterminismConfig, "determinism"),
        "determinism");
    ASSERT_EQ(ex.scenarios.size(), 2u);

    expt::RunOptions opt;
    opt.includeTiming = false;
    const std::string a = expt::runExperiment(ex, opt);
    const std::string b = expt::runExperiment(ex, opt);
    EXPECT_EQ(a, b);

    // The report is valid JSON and carries the expected shape.
    const obs::JsonValue report =
        obs::JsonReader::parseOrDie(a, "report");
    EXPECT_EQ(report["scenario_count"].asUint(), 2u);
    ASSERT_EQ(report["scenarios"].size(), 2u);
    const obs::JsonValue &sharded = report["scenarios"].at(1);
    EXPECT_EQ(sharded["faults_injected"].asUint(), 1u);
    EXPECT_EQ(sharded["completed"].asUint(),
              sharded["requests"].asUint());
    EXPECT_FALSE(sharded.has("wall_seconds"));
    // Both fleets decode the same tokens: same transcript digest.
    EXPECT_EQ(report["scenarios"].at(0)["transcript_fnv"].asString(),
              sharded["transcript_fnv"].asString());
    // Every tenant shows up in the per-tenant breakdown.
    EXPECT_EQ(sharded["tenant_breakdown"].size(), 2u);

    // Smoke mode caps the trace but keeps the matrix.
    expt::RunOptions smoke = opt;
    smoke.smoke = true;
    smoke.smokeRequests = 3;
    const obs::JsonValue smoked = obs::JsonReader::parseOrDie(
        expt::runExperiment(ex, smoke), "smoke report");
    EXPECT_EQ(smoked["scenario_count"].asUint(), 2u);
    EXPECT_EQ(smoked["scenarios"].at(0)["requests"].asUint(), 3u);
}

// -- Multi-tenant bit-identity --------------------------------------------

/** Solo expectation: each request generated alone with its tenant's
 *  adapter installed as the engine default. */
std::vector<std::vector<std::size_t>>
soloTranscripts(const TransformerConfig &cfg,
                const ModelWeights &weights, ExecPath path,
                const std::vector<expt::TraceRequest> &trace,
                const std::vector<const LoraSet *> &adapter_of_tenant)
{
    Engine engine(cfg, weights, path);
    std::vector<std::vector<std::size_t>> want;
    for (const expt::TraceRequest &r : trace) {
        engine.setLora(adapter_of_tenant[r.tenantId]);
        Sampler sampler(r.sampler, r.seed);
        want.push_back(
            engine.generate(r.prompt, r.decodeTokens, sampler));
    }
    return want;
}

TEST(MultiTenant, BitIdenticalToSoloAcrossKernelsAndThreads)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 42);
    const LoraSet setA =
        LoraSet::random(cfg.layerCount, cfg.hiddenSize,
                        cfg.qProjectionDim(), 2, 11, 0.5);
    const LoraSet setB =
        LoraSet::random(cfg.layerCount, cfg.hiddenSize,
                        cfg.qProjectionDim(), 2, 22, 0.5);
    const std::vector<const LoraSet *> adapter_of_tenant = {
        nullptr, &setA, &setB};

    expt::TraceConfig tc;
    tc.vocabSize = cfg.vocabSize;
    tc.requests = 9;
    tc.decodeBase = 4;
    tc.promptBase = 3;
    tc.promptMod = 3;
    tc.classMix = true;
    tc.tenantIds = {0, 1, 2};
    tc.tenantWeights = {1.0, 1.0, 1.0};
    const auto trace = expt::makeServingTrace(tc);

    for (ExecPath path : {ExecPath::Reference, ExecPath::Hardwired}) {
        const auto want = soloTranscripts(cfg, weights, path, trace,
                                          adapter_of_tenant);
        const std::vector<HnKernel> kernels =
            path == ExecPath::Hardwired
                ? std::vector<HnKernel>{HnKernel::Scalar,
                                        HnKernel::Packed,
                                        HnKernel::Simd}
                : std::vector<HnKernel>{HnKernel::Packed};
        for (HnKernel kernel : kernels) {
            for (std::size_t threads : {1u, 2u}) {
                ExecOptions exec;
                exec.threads = threads;
                exec.kernel = kernel;
                Engine engine(cfg, weights, path, 8, exec);
                ServingEngine serving(engine, 3);
                serving.loraRegistry().registerTenant(1, &setA);
                serving.loraRegistry().registerTenant(2, &setB);
                for (const expt::TraceRequest &r : trace) {
                    ServingRequest req;
                    req.prompt = r.prompt;
                    req.decodeTokens = r.decodeTokens;
                    req.arrivalStep = r.arrivalStep;
                    req.sampler = r.sampler;
                    req.seed = r.seed;
                    req.tenantId = r.tenantId;
                    ASSERT_TRUE(
                        serving.tryEnqueue(std::move(req)).admitted());
                }
                const auto outcomes = serving.run();
                ASSERT_EQ(outcomes.size(), trace.size());
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    EXPECT_EQ(outcomes[i].tenantId,
                              trace[i].tenantId);
                    ASSERT_EQ(outcomes[i].tokens, want[i])
                        << "path " << int(path) << " kernel "
                        << int(kernel) << " threads " << threads
                        << " request " << i;
                }
            }
        }
    }
}

TEST(MultiTenant, BitIdenticalThroughRepairableFaultOnRouter)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 77);
    const LoraSet setA =
        LoraSet::random(cfg.layerCount, cfg.hiddenSize,
                        cfg.qProjectionDim(), 2, 31, 0.5);
    const LoraSet setB =
        LoraSet::random(cfg.layerCount, cfg.hiddenSize,
                        cfg.qProjectionDim(), 2, 32, 0.5);
    const std::vector<const LoraSet *> adapter_of_tenant = {
        nullptr, &setA, &setB};

    expt::TraceConfig tc;
    tc.vocabSize = cfg.vocabSize;
    tc.requests = 12;
    tc.seed = 4;
    tc.paretoArrivals = true;
    tc.decodeBase = 3;
    tc.promptBase = 3;
    tc.promptMod = 3;
    tc.tenantIds = {0, 1, 2};
    tc.tenantWeights = {1.0, 1.0, 2.0};
    const auto trace = expt::makeServingTrace(tc);
    const auto want = soloTranscripts(
        cfg, weights, ExecPath::Reference, trace, adapter_of_tenant);

    serve::RouterConfig rc;
    rc.shards = 2;
    rc.slotsPerShard = 2;
    serve::ServingRouter router(cfg, weights, ExecPath::Reference, 8,
                                {}, rc);
    router.loraRegistry().registerTenant(1, &setA);
    router.loraRegistry().registerTenant(2, &setB);
    // Mid-run spare-row-repairable hit on shard 0: the shard probes
    // bit-identical after repair and keeps serving its tenants.
    serve::ShardFaultEvent repairable;
    repairable.step = 5;
    repairable.shard = 0;
    repairable.modelFaults.deadRowRate = 0.005;
    repairable.modelFaults.spareRows = 128;
    repairable.modelFaults.seed = 9;
    router.scheduleFault(repairable);

    for (const expt::TraceRequest &r : trace) {
        serve::RouterRequest req;
        req.prompt = r.prompt;
        req.decodeTokens = r.decodeTokens;
        req.arrivalStep = r.arrivalStep;
        req.sampler = r.sampler;
        req.seed = r.seed;
        req.tenantId = r.tenantId;
        ASSERT_TRUE(router.enqueue(std::move(req)).admitted());
    }
    const auto outcomes = router.run();
    EXPECT_EQ(router.stats().faultsInjected, 1u);
    EXPECT_EQ(router.stats().completed, trace.size());
    ASSERT_EQ(outcomes.size(), trace.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].status,
                  serve::RequestStatus::Completed);
        EXPECT_EQ(outcomes[i].tenantId, trace[i].tenantId);
        EXPECT_EQ(outcomes[i].tokens, want[i]) << "request " << i;
    }
}

// -- Tenant isolation in the prefix cache ---------------------------------

TEST(MultiTenant, PrefixHitsNeverCrossTenants)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 21);
    const LoraSet setA =
        LoraSet::random(cfg.layerCount, cfg.hiddenSize,
                        cfg.qProjectionDim(), 2, 51, 0.5);

    Engine engine(cfg, weights, ExecPath::Reference);
    PrefixCache prefix(engine.kvPool());
    ServingEngine serving(engine, 1, &prefix);
    serving.loraRegistry().registerTenant(1, &setA);

    // A prompt long enough to span whole KV blocks, so a same-tenant
    // re-serve must take a prefix hit.
    std::vector<std::size_t> prompt(40);
    for (std::size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = (5 + 3 * i) % cfg.vocabSize;
    auto request_as = [&prompt](std::size_t tenant) {
        ServingRequest req;
        req.prompt = prompt;
        req.decodeTokens = 2;
        req.tenantId = tenant;
        return req;
    };

    // Run 1 (tenant 0): cold, inserts the prompt under tenant 0.
    ASSERT_TRUE(serving.tryEnqueue(request_as(0)).admitted());
    serving.run();
    EXPECT_EQ(serving.stats().prefixHits, 0u);
    EXPECT_EQ(serving.stats().prefixMisses, 1u);

    // Run 2 (tenant 1, identical prompt): MUST miss -- tenant 1's KV
    // depends on its adapter from layer 1 on, so tenant 0's cached
    // prefix would serve wrong hidden state.
    ASSERT_TRUE(serving.tryEnqueue(request_as(1)).admitted());
    serving.run();
    EXPECT_EQ(serving.stats().prefixHits, 0u);
    EXPECT_EQ(serving.stats().prefixMisses, 1u);

    // Runs 3 and 4: each tenant re-serving its own prompt hits.
    ASSERT_TRUE(serving.tryEnqueue(request_as(0)).admitted());
    serving.run();
    EXPECT_EQ(serving.stats().prefixHits, 1u);
    EXPECT_GT(serving.stats().prefixMatchedTokens, 0u);

    ASSERT_TRUE(serving.tryEnqueue(request_as(1)).admitted());
    serving.run();
    EXPECT_EQ(serving.stats().prefixHits, 1u);
}

// -- Unknown tenants are refused, never fatal -----------------------------

TEST(MultiTenant, UnknownTenantRefusedAtEnqueue)
{
    const TransformerConfig cfg = tinyTestModel();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 33);

    Engine engine(cfg, weights, ExecPath::Reference);
    ServingEngine serving(engine, 1);
    ServingRequest req;
    req.prompt = {1, 2, 3};
    req.decodeTokens = 2;
    req.tenantId = 7; // never registered
    const EnqueueResult refused = serving.tryEnqueue(req);
    EXPECT_FALSE(refused.admitted());
    EXPECT_EQ(refused.reason, RejectReason::UnknownTenant);
    EXPECT_EQ(serving.queuedRequests(), 0u);
    EXPECT_STREQ(rejectReasonName(refused.reason), "unknown_tenant");

    // Registration (even of a null adapter == base model) fixes it.
    serving.loraRegistry().registerTenant(7, nullptr);
    EXPECT_TRUE(serving.tryEnqueue(req).admitted());

    // The router sheds with the same typed reason and records an
    // outcome instead of aborting.
    serve::RouterConfig rc;
    rc.shards = 1;
    rc.slotsPerShard = 1;
    serve::ServingRouter router(cfg, weights, ExecPath::Reference, 8,
                                {}, rc);
    serve::RouterRequest rr;
    rr.prompt = {1, 2, 3};
    rr.decodeTokens = 2;
    rr.tenantId = 7;
    const EnqueueResult shed = router.enqueue(rr);
    EXPECT_FALSE(shed.admitted());
    EXPECT_EQ(shed.reason, RejectReason::UnknownTenant);
    const auto outcomes = router.run();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, serve::RequestStatus::Shed);
    EXPECT_EQ(outcomes[0].reason, RejectReason::UnknownTenant);
    EXPECT_EQ(
        router.stats()
            .byReason[std::size_t(RejectReason::UnknownTenant)],
        1u);
}

} // namespace
} // namespace hnlpu
