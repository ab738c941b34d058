/**
 * @file
 * Shared types of the repository benchmark (perfbench).
 *
 * A workload owns its model weights and serving objects and runs
 * "laps": one lap serves a seed-derived list of requests through the
 * workload's public entry point (Engine::generate, ServingEngine::run or
 * ServingRouter::run).  Either every lap serves the same requests, so
 * every lap must decode exactly the tokens of lap 0, or lap k serves
 * slice k of one long trace, so that a run covers many distinct requests
 * of a heavy-tailed traffic mix.  main.cc times laps until
 * the run's budget is spent and folds the per-request records into the
 * end-to-end metrics.
 */

#ifndef HNBENCH_BENCH_HH
#define HNBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expt/workload.hh"
#include "hn/hn_neuron.hh"
#include "model/transformer_config.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "xformer/engine.hh"
#include "xformer/lora.hh"
#include "xformer/weights.hh"

namespace hnbench {

using Clock = std::chrono::steady_clock;

/** Activation precision of every hardwired engine the benchmark builds. */
inline constexpr unsigned kActivationBits = 8;

/** Wall seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One served request of a lap. */
struct RequestResult
{
    bool completed = false;
    /** Terminal status code folded into the transcript digest
     *  (serve::RequestStatus; 0 == completed). */
    std::size_t status = 0;
    std::vector<std::size_t> tokens;
    // Wall seconds from the request's arrival (completed requests).
    double ttftS = 0;
    double latencyS = 0;
    double queueS = 0;
    /** Scheduler steps from arrival to admission (serving front ends). */
    std::size_t queueSteps = 0;
};

/**
 * Modelled HNLPU work and expert routing of a lap's measured calls, read
 * from the workload's own engine (absent when the front end keeps its
 * engines private, as the router does).
 */
struct EngineWork
{
    hnlpu::HnActivity activity;
    std::vector<std::size_t> experts; //!< routing count per expert

    /** Add the work between two snapshots of one engine's stats. */
    void addDelta(const hnlpu::EngineStats &before,
                  const hnlpu::EngineStats &after);
};

/** Everything one lap produced. */
struct LapResult
{
    std::vector<RequestResult> requests;
    /** Wall seconds the lap's decoding took (see Workload::runLap). */
    double wallS = 0;
    /** Scheduler steps executed (0 for the single-client workload). */
    std::size_t steps = 0;
    /** Busy-slot forwards issued by the serving scheduler. */
    std::size_t forwards = 0;
    std::size_t prefixHits = 0;
    std::size_t prefixMisses = 0;
    std::size_t matchedTokens = 0;
    std::size_t promptTokens = 0;
    std::size_t shed = 0;
    std::size_t cancelled = 0;
    std::size_t retries = 0;
    std::size_t probes = 0;
    std::size_t probeFailures = 0;
    std::size_t failovers = 0;
    std::optional<EngineWork> engine;

    std::size_t decodedTokens() const;
};

/** Wall seconds of the three set-up phases. */
struct SetupTimes
{
    double weightsS = 0;
    double constructS = 0;
    double firstForwardS = 0;
};

/** A benchmark workload: see the file comment. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Model, execution settings and offered load, as report fields. */
    virtual void describe(hnlpu::obs::JsonWriter &w) const = 0;

    /**
     * Build weights, construct the untraced serving objects and run the
     * first forward (lazy hardwired programming), replacing whatever a
     * previous call built.
     */
    virtual SetupTimes setUp() = 0;

    /**
     * Rebuild the serving objects over the existing weights with @p sink
     * wired through ExecOptions (and the prefix cache), replacing the
     * untraced ones.
     */
    virtual void attachSink(const hnlpu::obs::Sink *sink) = 0;

    /**
     * Name of the benchmark span wrapping the calls whose decoded tokens
     * the metrics count (traced runs only).
     */
    virtual const char *measuredSpan() const = 0;

    /** Serve lap @p lap (see lapsRepeat()). */
    virtual LapResult runLap(std::size_t lap) = 0;

    /**
     * True when every lap serves lap 0's requests; false when each lap
     * serves the next slice of a longer trace.
     */
    virtual bool lapsRepeat() const = 0;

    /** KV blocks held by the workload's block pools right now. */
    virtual std::size_t kvBlocks() const = 0;

    /** The requests lap @p lap serves, in id order. */
    virtual const std::vector<hnlpu::expt::TraceRequest> &
    lapRequests(std::size_t lap) const = 0;

    virtual const hnlpu::TransformerConfig &config() const = 0;
    virtual const hnlpu::ModelWeights &weights() const = 0;
    /** Adapter @p tenant decodes with (null == base model). */
    virtual const hnlpu::LoraSet *adapter(std::size_t tenant) const = 0;

    /**
     * How many requests of lap 0 (and, when laps do not repeat, of every
     * timed lap) the solo re-decode check samples.
     */
    virtual std::size_t verifyCount() const = 0;

    /** Host parallelism of the workload's engines. */
    virtual std::size_t threads() const = 0;
    virtual bool pinned() const = 0;
};

/** The named workload, with inputs derived from the two seeds. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       std::uint64_t weight_seed);

/** Names makeWorkload accepts. */
const std::vector<std::string> &workloadNames();

} // namespace hnbench

#endif // HNBENCH_BENCH_HH
