/**
 * @file
 * Experiment config parsing, matrix expansion and the scenario runner.
 * See experiment.hh for the document schema and determinism contract.
 */

#include "expt/experiment.hh"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "model/model_zoo.hh"
#include "obs/json.hh"
#include "xformer/weights.hh"

namespace hnlpu::expt {

namespace {

[[noreturn]] void
configFatal(const obs::JsonValue &v, std::string_view what,
            const std::string &msg)
{
    hnlpu_fatal(std::string(what), ": line ", v.line(), " column ",
                v.column(), ": ", msg);
}

ExecPath
parsePath(const obs::JsonValue &v, std::string_view what)
{
    const std::string &s = v.asString();
    if (s == "reference")
        return ExecPath::Reference;
    if (s == "hardwired")
        return ExecPath::Hardwired;
    configFatal(v, what,
                "unknown path \"" + s +
                    "\" (want \"reference\" or \"hardwired\")");
}

HnKernel
parseKernel(const obs::JsonValue &v, std::string_view what)
{
    const std::string &s = v.asString();
    if (s == "scalar")
        return HnKernel::Scalar;
    if (s == "packed")
        return HnKernel::Packed;
    if (s == "simd")
        return HnKernel::Simd;
    configFatal(v, what,
                "unknown kernel \"" + s +
                    "\" (want \"scalar\", \"packed\" or \"simd\")");
}

WorkloadAxisPoint
parseWorkload(const obs::JsonValue &v, std::string_view what)
{
    v.checkKeys({"name", "requests", "seed", "pareto_arrivals",
                 "arrival_alpha", "arrival_cap", "decode_base",
                 "pareto_decode", "decode_alpha", "decode_cap",
                 "prompt_base", "prompt_mod", "shared_percent",
                 "shared_tokens", "class_mix", "deadlines"});
    WorkloadAxisPoint w;
    w.name = v.stringOr("name", w.name);
    TraceConfig &t = w.trace;
    t.requests = v.uintOr("requests", 8);
    t.seed = v.uintOr("seed", t.seed);
    t.paretoArrivals = v.boolOr("pareto_arrivals", t.paretoArrivals);
    t.arrivalAlpha = v.doubleOr("arrival_alpha", t.arrivalAlpha);
    t.arrivalCap = v.uintOr("arrival_cap", t.arrivalCap);
    t.decodeBase = v.uintOr("decode_base", 4);
    t.paretoDecode = v.boolOr("pareto_decode", t.paretoDecode);
    t.decodeAlpha = v.doubleOr("decode_alpha", t.decodeAlpha);
    t.decodeCap = v.uintOr("decode_cap", t.decodeCap);
    t.promptBase = v.uintOr("prompt_base", t.promptBase);
    t.promptMod = v.uintOr("prompt_mod", t.promptMod);
    t.sharedPercent = v.uintOr("shared_percent", t.sharedPercent);
    t.sharedTokens = v.uintOr("shared_tokens", t.sharedTokens);
    t.classMix = v.boolOr("class_mix", t.classMix);
    t.deadlines = v.boolOr("deadlines", t.deadlines);
    if (t.requests == 0)
        configFatal(v, what, "workload needs requests >= 1");
    if (t.sharedPercent > 100)
        configFatal(v, what, "shared_percent must be <= 100");
    return w;
}

EngineAxisPoint
parseEngine(const obs::JsonValue &v, std::string_view what)
{
    v.checkKeys({"name", "path", "kernel", "activation_bits",
                 "threads", "batch_slots", "kv_block_tokens",
                 "kv_pool_blocks", "prefix_cache"});
    EngineAxisPoint e;
    e.name = v.stringOr("name", e.name);
    if (const obs::JsonValue *p = v.find("path"))
        e.path = parsePath(*p, what);
    if (const obs::JsonValue *k = v.find("kernel"))
        e.kernel = parseKernel(*k, what);
    e.activationBits =
        unsigned(v.uintOr("activation_bits", e.activationBits));
    e.threads = v.uintOr("threads", e.threads);
    e.batchSlots = v.uintOr("batch_slots", e.batchSlots);
    e.kvBlockTokens = v.uintOr("kv_block_tokens", e.kvBlockTokens);
    e.kvPoolBlocks = v.uintOr("kv_pool_blocks", e.kvPoolBlocks);
    e.prefixCache = v.boolOr("prefix_cache", e.prefixCache);
    if (e.threads == 0 || e.batchSlots == 0)
        configFatal(v, what, "threads and batch_slots must be >= 1");
    return e;
}

FleetAxisPoint
parseFleet(const obs::JsonValue &v, std::string_view what)
{
    v.checkKeys({"name", "shards", "faults"});
    FleetAxisPoint f;
    f.name = v.stringOr("name", f.name);
    f.shards = v.uintOr("shards", f.shards);
    if (const obs::JsonValue *faults = v.find("faults")) {
        if (f.shards == 0)
            configFatal(v, what,
                        "faults need a sharded fleet (shards >= 1)");
        for (const obs::JsonValue &fv : faults->elements()) {
            fv.checkKeys({"step", "shard", "dead_row_rate",
                          "stuck_bit_rate", "spare_rows", "seed",
                          "link_retry_probability", "kill_link"});
            FaultSpec s;
            s.step = fv.uintOr("step", s.step);
            s.shard = fv.uintOr("shard", s.shard);
            s.deadRowRate = fv.doubleOr("dead_row_rate", s.deadRowRate);
            s.stuckBitRate =
                fv.doubleOr("stuck_bit_rate", s.stuckBitRate);
            s.spareRows = fv.uintOr("spare_rows", s.spareRows);
            s.seed = fv.uintOr("seed", s.seed);
            s.linkRetryProbability = fv.doubleOr(
                "link_retry_probability", s.linkRetryProbability);
            s.killLink = fv.boolOr("kill_link", s.killLink);
            if (s.shard >= f.shards)
                configFatal(fv, what,
                            "fault shard out of range for fleet");
            if (!f.faults.empty() && s.step < f.faults.back().step)
                configFatal(fv, what,
                            "fault steps must be non-decreasing");
            f.faults.push_back(s);
        }
    }
    return f;
}

TenantAxisPoint
parseTenants(const obs::JsonValue &v, std::string_view what)
{
    v.checkKeys({"name", "tenants"});
    TenantAxisPoint t;
    t.name = v.stringOr("name", t.name);
    if (const obs::JsonValue *list = v.find("tenants")) {
        for (const obs::JsonValue &tv : list->elements()) {
            tv.checkKeys({"id", "rank", "seed", "scale", "weight"});
            TenantSpec s;
            s.id = tv.uintOr("id", s.id);
            s.rank = tv.uintOr("rank", s.rank);
            s.seed = tv.uintOr("seed", s.seed);
            s.scale = tv.doubleOr("scale", s.scale);
            s.weight = tv.doubleOr("weight", s.weight);
            if (s.rank == 0)
                configFatal(tv, what, "tenant rank must be >= 1");
            if (s.weight <= 0.0)
                configFatal(tv, what, "tenant weight must be > 0");
            for (const TenantSpec &prev : t.tenants)
                if (prev.id == s.id)
                    configFatal(tv, what,
                                "duplicate tenant id " +
                                    std::to_string(s.id));
            t.tenants.push_back(s);
        }
    }
    return t;
}

/** Parse one axis array (absent == one default point). */
template <typename Point, typename ParseFn>
std::vector<Point>
parseAxis(const obs::JsonValue &matrix, std::string_view key,
          std::string_view what, ParseFn parse)
{
    std::vector<Point> points;
    if (const obs::JsonValue *axis = matrix.find(key)) {
        for (const obs::JsonValue &v : axis->elements())
            points.push_back(parse(v, what));
        if (points.empty())
            configFatal(*axis, what,
                        std::string(key) + " axis must be non-empty");
    } else {
        points.push_back(Point{});
    }
    return points;
}

// ---------------------------------------------------------------------
// Scenario runner.

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

std::string
hexDigest(std::uint64_t h)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
    return buf;
}

/** Per-tenant aggregation of one scenario's outcomes. */
struct TenantAgg
{
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t decodedTokens = 0;
    std::size_t ttftStepsSum = 0; //!< over completed requests
};

/** Result of one scenario run. */
struct ScenarioResult
{
    std::size_t requests = 0; //!< trace size (smoke-capped)
    std::size_t enqueued = 0; //!< accepted at enqueue
    serve::RouterStats stats;
    std::map<std::size_t, TenantAgg> tenants;
    std::uint64_t digest = kFnvOffset;
};

/** Smoke-capped trace for one scenario, tenant traffic applied. */
std::vector<TraceRequest>
scenarioTrace(const Scenario &sc, const TransformerConfig &model,
              const RunOptions &opt)
{
    TraceConfig tc = sc.workload.trace;
    tc.vocabSize = model.vocabSize;
    if (opt.smoke && tc.requests > opt.smokeRequests)
        tc.requests = opt.smokeRequests;
    for (const TenantSpec &t : sc.tenants.tenants) {
        tc.tenantIds.push_back(t.id);
        tc.tenantWeights.push_back(t.weight);
    }
    return makeServingTrace(tc);
}

/** Build one LoraSet per tenant spec (addresses stable: reserved). */
std::vector<LoraSet>
buildAdapters(const Scenario &sc, const TransformerConfig &model)
{
    std::vector<LoraSet> adapters;
    adapters.reserve(sc.tenants.tenants.size());
    for (const TenantSpec &t : sc.tenants.tenants)
        adapters.push_back(LoraSet::random(
            model.layerCount, model.hiddenSize, model.qProjectionDim(),
            t.rank, t.seed, t.scale));
    return adapters;
}

ExecOptions
execOptionsFor(const EngineAxisPoint &e)
{
    ExecOptions exec;
    exec.threads = e.threads;
    exec.kernel = e.kernel;
    exec.kvBlockTokens = e.kvBlockTokens;
    exec.kvPoolBlocks = e.kvPoolBlocks;
    return exec;
}

/**
 * One scenario on a ServingRouter.  A solo scenario (fleet.shards == 0)
 * runs on one shard with queues as deep as its trace, and every request
 * is a deadline-free batch request: the router then admits in arrival
 * order, sheds nothing and schedules exactly like a ServingEngine
 * (Router.OneShardCleanRouterMatchesServingEngineStepForStep).
 */
ScenarioResult
runScenario(const Scenario &sc, const TransformerConfig &model,
            const ModelWeights &weights, const RunOptions &opt)
{
    const std::vector<TraceRequest> trace =
        scenarioTrace(sc, model, opt);
    const std::vector<LoraSet> adapters = buildAdapters(sc, model);
    const bool solo = sc.fleet.shards == 0;

    serve::RouterConfig rc;
    rc.shards = solo ? 1 : sc.fleet.shards;
    rc.slotsPerShard = sc.engine.batchSlots;
    rc.prefixCache = sc.engine.prefixCache;
    if (solo) {
        rc.interactiveQueueCapacity = trace.size();
        rc.batchQueueCapacity = trace.size();
    }
    serve::ServingRouter router(model, weights, sc.engine.path,
                                sc.engine.activationBits,
                                execOptionsFor(sc.engine), rc);
    for (std::size_t i = 0; i < adapters.size(); ++i)
        router.loraRegistry().registerTenant(sc.tenants.tenants[i].id,
                                             &adapters[i]);
    for (const FaultSpec &f : sc.fleet.faults) {
        serve::ShardFaultEvent ev;
        ev.step = f.step;
        ev.shard = f.shard;
        ev.modelFaults.seed = f.seed;
        ev.modelFaults.deadRowRate = f.deadRowRate;
        ev.modelFaults.stuckBitRate = f.stuckBitRate;
        ev.modelFaults.spareRows = f.spareRows;
        ev.linkFaults.seed = f.seed;
        ev.linkFaults.retryProbability = f.linkRetryProbability;
        ev.killLink = f.killLink;
        router.scheduleFault(ev);
    }

    ScenarioResult r;
    r.requests = trace.size();
    for (const TraceRequest &tr : trace) {
        serve::RouterRequest req;
        req.prompt = tr.prompt;
        req.decodeTokens = tr.decodeTokens;
        req.arrivalStep = tr.arrivalStep;
        req.sampler = tr.sampler;
        req.seed = tr.seed;
        req.tenantId = tr.tenantId;
        if (!solo) {
            if (tr.interactive)
                req.cls = serve::RequestClass::Interactive;
            req.ttftDeadlineSteps = tr.ttftDeadlineSteps;
            req.deadlineSteps = tr.deadlineSteps;
        }
        const EnqueueResult res = router.enqueue(std::move(req));
        if (res.admitted())
            ++r.enqueued;
    }

    const std::vector<serve::RouterOutcome> outcomes = router.run();
    r.stats = router.stats();
    for (const serve::RouterOutcome &out : outcomes) {
        TenantAgg &agg = r.tenants[out.tenantId];
        ++agg.requests;
        r.digest = fnvMix(r.digest, out.id);
        r.digest = fnvMix(r.digest, out.tenantId);
        r.digest = fnvMix(r.digest, std::size_t(out.status));
        r.digest = fnvMix(r.digest, out.tokens.size());
        for (const std::size_t token : out.tokens)
            r.digest = fnvMix(r.digest, token);
        if (out.status != serve::RequestStatus::Completed)
            continue;
        ++agg.completed;
        agg.decodedTokens += out.tokens.size();
        agg.ttftStepsSum += out.firstTokenStep - out.arrivalStep;
    }
    return r;
}

void
emitScenario(obs::JsonWriter &w, const Scenario &sc,
             const ScenarioResult &r, const RunOptions &opt)
{
    w.beginObject();
    w.field("name", sc.name);
    w.field("workload", sc.workload.name);
    w.field("engine", sc.engine.name);
    w.field("fleet", sc.fleet.name);
    w.field("tenants", sc.tenants.name);
    w.field("shards", sc.fleet.shards);
    w.field("slots", sc.engine.batchSlots);
    w.field("threads", sc.engine.threads);
    const serve::RouterStats &st = r.stats;
    w.field("requests", r.requests);
    w.field("enqueued", r.enqueued);
    w.field("completed", st.completed);
    w.field("shed", st.shed);
    w.field("cancelled", st.cancelled);
    w.field("decoded_tokens", st.decodedTokens);
    w.field("executed_steps", st.executedSteps);
    if (sc.fleet.shards > 0) {
        w.field("retries", st.retries);
        w.field("failovers", st.failovers);
        w.field("faults_injected", st.faultsInjected);
        w.field("degraded_mode", st.degradedMode);
    }
    w.key("prefix").beginObject();
    w.field("hits", st.prefixHits);
    w.field("misses", st.prefixMisses);
    w.field("matched_tokens", st.prefixMatchedTokens);
    w.endObject();
    if (st.shed + st.cancelled > 0) {
        // Shed and cancelled requests by reason, in RejectReason order.
        w.key("rejects").beginObject();
        for (std::size_t reason = 0; reason < kRejectReasonCount;
             ++reason) {
            if (st.byReason[reason] > 0)
                w.field(rejectReasonName(RejectReason(reason)),
                        st.byReason[reason]);
        }
        w.endObject();
    }
    w.key("tenant_breakdown").beginArray();
    for (const auto &[tenant, agg] : r.tenants) {
        w.beginObject();
        w.field("tenant", tenant);
        w.field("requests", agg.requests);
        w.field("completed", agg.completed);
        w.field("decoded_tokens", agg.decodedTokens);
        w.field("ttft_steps_mean",
                agg.completed > 0
                    ? double(agg.ttftStepsSum) / double(agg.completed)
                    : 0.0);
        w.endObject();
    }
    w.endArray();
    if (opt.includeTiming) {
        w.field("wall_seconds", st.wallSeconds);
        w.field("throughput_tokens_per_s", st.goodputTokensPerSecond);
        w.field("ttft_p50_s", st.ttftP50Seconds);
        w.field("ttft_tail_s", st.ttftP99Seconds);
    }
    w.field("transcript_fnv", hexDigest(r.digest));
    w.endObject();
}

} // namespace

TransformerConfig
defaultModelPreset()
{
    return scaledGptOssBlock();
}

Experiment
parseExperiment(const obs::JsonValue &root, std::string_view what)
{
    root.checkKeys({"name", "model", "weight_seed", "matrix"});
    Experiment ex;
    ex.name = root.stringOr("name", ex.name);
    ex.weightSeed = root.uintOr("weight_seed", ex.weightSeed);
    ex.model = defaultModelPreset();
    if (const obs::JsonValue *m = root.find("model")) {
        m->checkKeys({"name", "hidden", "layers", "query_heads",
                      "kv_heads", "head_dim", "vocab", "experts",
                      "active_experts", "expert_hidden",
                      "weight_bits"});
        ex.model.name = m->stringOr("name", ex.model.name);
        ex.model.hiddenSize = m->uintOr("hidden", ex.model.hiddenSize);
        ex.model.layerCount = m->uintOr("layers", ex.model.layerCount);
        ex.model.queryHeads =
            m->uintOr("query_heads", ex.model.queryHeads);
        ex.model.kvHeads = m->uintOr("kv_heads", ex.model.kvHeads);
        ex.model.headDim = m->uintOr("head_dim", ex.model.headDim);
        ex.model.vocabSize = m->uintOr("vocab", ex.model.vocabSize);
        ex.model.expertCount =
            m->uintOr("experts", ex.model.expertCount);
        ex.model.activeExperts =
            m->uintOr("active_experts", ex.model.activeExperts);
        ex.model.expertHidden =
            m->uintOr("expert_hidden", ex.model.expertHidden);
        ex.model.weightBits =
            unsigned(m->uintOr("weight_bits", ex.model.weightBits));
        ex.model.validate();
    }

    const obs::JsonValue &matrix = root["matrix"];
    matrix.checkKeys({"workload", "engine", "fleet", "tenants"});
    const auto workloads = parseAxis<WorkloadAxisPoint>(
        matrix, "workload", what, parseWorkload);
    const auto engines =
        parseAxis<EngineAxisPoint>(matrix, "engine", what, parseEngine);
    const auto fleets =
        parseAxis<FleetAxisPoint>(matrix, "fleet", what, parseFleet);
    const auto tenantSets = parseAxis<TenantAxisPoint>(
        matrix, "tenants", what, parseTenants);

    // Cross product, row-major in declaration order: the scenario
    // order is part of the deterministic report.
    for (const WorkloadAxisPoint &w : workloads)
        for (const EngineAxisPoint &e : engines)
            for (const FleetAxisPoint &f : fleets)
                for (const TenantAxisPoint &t : tenantSets) {
                    Scenario sc;
                    sc.name = w.name + "/" + e.name + "/" + f.name +
                              "/" + t.name;
                    sc.workload = w;
                    sc.engine = e;
                    sc.fleet = f;
                    sc.tenants = t;
                    ex.scenarios.push_back(std::move(sc));
                }
    return ex;
}

Experiment
loadExperimentFile(const std::string &path)
{
    return parseExperiment(obs::JsonReader::parseFile(path), path);
}

std::string
runExperiment(const Experiment &experiment, const RunOptions &options)
{
    const ModelWeights weights =
        ModelWeights::randomInit(experiment.model, experiment.weightSeed);

    obs::JsonWriter w(2);
    w.beginObject();
    w.field("experiment", experiment.name);
    w.field("smoke", options.smoke);
    w.key("model").beginObject();
    w.field("name", experiment.model.name);
    w.field("hidden", experiment.model.hiddenSize);
    w.field("layers", experiment.model.layerCount);
    w.field("vocab", experiment.model.vocabSize);
    w.field("experts", experiment.model.expertCount);
    w.field("weight_seed", experiment.weightSeed);
    w.endObject();
    w.field("scenario_count", experiment.scenarios.size());
    w.key("scenarios").beginArray();
    for (const Scenario &sc : experiment.scenarios) {
        emitScenario(w, sc,
                     runScenario(sc, experiment.model, weights, options),
                     options);
    }
    w.endArray();
    w.endObject();
    return w.str();
}

const NamedExperiment *
findBuiltinExperiment(std::string_view name)
{
    for (const NamedExperiment &e : builtinExperiments())
        if (name == e.name)
            return &e;
    return nullptr;
}

} // namespace hnlpu::expt
