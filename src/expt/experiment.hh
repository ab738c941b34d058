/**
 * @file
 * Declarative scenario-matrix experiment driver.
 *
 * An experiment is one JSON document (parsed with obs::JsonReader, the
 * read-side dual of the JsonWriter every artefact is emitted with)
 * describing a *matrix* of scenarios along four independent axes:
 *
 *   - `workload`: a deterministic serving trace (expt/workload.hh
 *     TraceConfig -- arrival process, decode lengths, shared-prefix
 *     mix, class mix, deadlines),
 *   - `engine`: the execution configuration (path, HN kernel, threads,
 *     decode slots, paged-KV budget, prefix cache),
 *   - `fleet`: an N-shard ServingRouter with a seeded fault schedule,
 *     or solo serving (a 1-shard router fed deadline-free batch
 *     requests, which schedules exactly like a ServingEngine),
 *   - `tenants`: per-tenant LoRA adapters with traffic weights
 *     (xformer/lora.hh LoraRegistry).
 *
 * The driver expands the cross product, runs every scenario, and
 * returns one JSON report (the BENCH_expt.json payload) with
 * per-scenario goodput, TTFT, prefix-cache and per-tenant breakdowns
 * plus an FNV-1a digest of every decoded token -- the determinism
 * handle tests pin byte-identical across runs.
 *
 * Determinism contract: with RunOptions::includeTiming off the report
 * contains no wall-clock field, and everything else (schedules,
 * decoded tokens, digests) is a pure function of the config, so two
 * runs of the same experiment produce byte-identical reports
 * (tests/test_expt.cc pins this across kernels and thread counts).
 */

#ifndef HNLPU_EXPT_EXPERIMENT_HH
#define HNLPU_EXPT_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "expt/workload.hh"
#include "model/transformer_config.hh"
#include "obs/json_reader.hh"
#include "serve/router.hh"
#include "xformer/linear.hh"

namespace hnlpu::expt {

/** One LoRA tenant: adapter shape/seed plus its traffic weight. */
struct TenantSpec
{
    std::size_t id = 0;       //!< registry tenant id (0 = default)
    std::size_t rank = 4;     //!< adapter rank r
    std::uint64_t seed = 1;   //!< LoraSet::random seed
    double scale = 0.25;      //!< adapter output scale
    double weight = 1.0;      //!< relative traffic share
};

/** One point on the `tenants` axis: a named set of tenants. */
struct TenantAxisPoint
{
    std::string name = "base";
    /** Empty == single-tenant base model (all traffic is tenant 0). */
    std::vector<TenantSpec> tenants;
};

/** One point on the `workload` axis. */
struct WorkloadAxisPoint
{
    std::string name = "default";
    /** vocabSize and tenant ids/weights are filled in by the driver
     *  (from the model and the tenant axis respectively). */
    TraceConfig trace;
};

/** One point on the `engine` axis. */
struct EngineAxisPoint
{
    std::string name = "default";
    ExecPath path = ExecPath::Hardwired;
    HnKernel kernel = HnKernel::Packed;
    unsigned activationBits = 8;
    std::size_t threads = 1;
    std::size_t batchSlots = 4;
    std::size_t kvBlockTokens = 16;
    std::size_t kvPoolBlocks = 0; //!< 0 = unbounded
    bool prefixCache = true;
};

/** One entry of a fleet's seeded fault schedule. */
struct FaultSpec
{
    std::size_t step = 0;
    std::size_t shard = 0;
    double deadRowRate = 0.0;
    double stuckBitRate = 0.0;
    std::size_t spareRows = 0;
    std::uint64_t seed = 0;
    double linkRetryProbability = 0.0;
    bool killLink = false;
};

/** One point on the `fleet` axis. */
struct FleetAxisPoint
{
    std::string name = "solo";
    /**
     * >= 1 == ServingRouter shards.  0 == solo: one shard, queues as
     * deep as the trace, every request a deadline-free batch request
     * (the workload's class mix and deadlines are ignored); reported
     * as `"shards": 0`.
     */
    std::size_t shards = 0;
    std::vector<FaultSpec> faults;
};

/** One fully expanded scenario (a cell of the matrix). */
struct Scenario
{
    std::string name; //!< "workload/engine/fleet/tenants"
    WorkloadAxisPoint workload;
    EngineAxisPoint engine;
    FleetAxisPoint fleet;
    TenantAxisPoint tenants;
};

/** A parsed experiment: model + expanded scenario matrix. */
struct Experiment
{
    std::string name = "experiment";
    TransformerConfig model;
    std::uint64_t weightSeed = 7;
    std::vector<Scenario> scenarios;
};

/** Driver run options. */
struct RunOptions
{
    /** Cap every workload at smokeRequests requests (tier-1 smoke
     *  runs: same matrix, tiny traces). */
    bool smoke = false;
    std::size_t smokeRequests = 6;
    /**
     * Emit wall-clock fields (goodput tok/s, TTFT seconds).  Off, the
     * report is a pure function of the experiment config: the
     * byte-identical determinism pin of tests/test_expt.cc.
     */
    bool includeTiming = true;
};

/**
 * The model preset experiment configs start from (scaledGptOssBlock(),
 * the benches' model); the config's `model` section overrides
 * individual fields.
 */
TransformerConfig defaultModelPreset();

/**
 * Parse an experiment document (fatal, with source locations, on
 * schema violations -- unknown keys, wrong types, bad enum names).
 * @p what names the document in failure messages.
 */
Experiment parseExperiment(const obs::JsonValue &root,
                           std::string_view what);

/** JsonReader::parseFile + parseExperiment. */
Experiment loadExperimentFile(const std::string &path);

/**
 * Run every scenario of @p experiment and return the JSON report
 * (pretty-printed, `python3 -m json.tool`-clean).
 */
std::string runExperiment(const Experiment &experiment,
                          const RunOptions &options = {});

/** One builtin experiment: registry name, examples/ path, JSON text. */
struct NamedExperiment
{
    const char *name; //!< registry key ("lora_tenant_mix", ...)
    const char *file; //!< repo-relative path under examples/expt/
    const char *json; //!< byte-identical to the file's content
};

/**
 * The builtin experiment registry.  Every entry's `json` is
 * byte-for-byte the content of its `file` under examples/expt/
 * (tests/test_expt.cc pins the equality), so tier-1 can smoke-run the
 * shipped examples without knowing the source-tree location.
 */
const std::vector<NamedExperiment> &builtinExperiments();

/** Registry lookup; null when @p name is not a builtin. */
const NamedExperiment *findBuiltinExperiment(std::string_view name);

} // namespace hnlpu::expt

#endif // HNLPU_EXPT_EXPERIMENT_HH
