/**
 * @file
 * Chaos benchmark for the fault-tolerant serving router: heavy-tail
 * arrivals over 4 engine shards with a seeded mid-run fault schedule
 * -- one shard takes a fully spare-repaired fault (and must keep
 * serving bit-identically), one shard is corrupted beyond repair
 * (drained and failed over), and one shard's CXL link turns lossy
 * (degraded, batch traffic avoids it).
 *
 * The bench verifies the robustness contract inline and exits
 * non-zero on any violation:
 *   - every completed request decodes tokens bit-identical to a clean
 *     solo Engine::generate with the same sampler config and seed;
 *   - every non-completed request carries a typed reason from the
 *     stated policy (queue backpressure, deadline expiry, retry
 *     budget) -- never a degraded-fleet shed while healthy shards
 *     remain, and never an abort;
 *   - the drained shard produces a recovery record.
 *
 * A clean-config parity run (1 shard, no faults) serves the same
 * trace through the PR 4 ServingEngine and through the router, pins
 * token equality, and reports the throughput ratio so BENCH_router's
 * clean goodput can be checked against BENCH_serving.json.
 *
 * Measurements go to BENCH_router.json: goodput, shed rate, p99 TTFT,
 * and per-episode recovery time.
 *
 * Usage: bench_router_chaos [requests] [json]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "expt/workload.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "model/model_zoo.hh"
#include "serve/router.hh"
#include "xformer/engine.hh"
#include "xformer/sampler.hh"
#include "xformer/serving.hh"
#include "xformer/weights.hh"

namespace {

using namespace hnlpu;
using namespace hnlpu::serve;

/**
 * Heavy-tail request trace (expt::makeServingTrace with the chaos
 * shape); arrivals are non-decreasing.  A nonzero @p shared_percent
 * prepends a @p shared_tokens system prompt to that share of requests.
 */
std::vector<RouterRequest>
makeTrace(const TransformerConfig &cfg, std::size_t requests,
          bool with_deadlines, std::uint64_t seed,
          std::size_t shared_percent = 0, std::size_t shared_tokens = 0)
{
    expt::TraceConfig tc;
    tc.vocabSize = cfg.vocabSize;
    tc.requests = requests;
    tc.seed = seed;
    tc.paretoArrivals = true;
    tc.decodeBase = 6;
    tc.paretoDecode = true;
    tc.promptBase = 3;
    tc.promptMod = 4;
    tc.sharedPercent = shared_percent;
    tc.sharedTokens = shared_tokens;
    tc.classMix = true;
    tc.deadlines = with_deadlines;
    std::vector<RouterRequest> trace;
    for (const expt::TraceRequest &tr :
         expt::makeServingTrace(tc)) {
        RouterRequest req;
        req.prompt = tr.prompt;
        req.decodeTokens = tr.decodeTokens;
        req.arrivalStep = tr.arrivalStep;
        req.sampler = tr.sampler;
        req.seed = tr.seed;
        req.cls = tr.interactive ? RequestClass::Interactive
                                 : RequestClass::Batch;
        req.ttftDeadlineSteps = tr.ttftDeadlineSteps;
        req.deadlineSteps = tr.deadlineSteps;
        trace.push_back(std::move(req));
    }
    return trace;
}

/** Clean solo transcripts, one engine for the whole trace. */
std::vector<std::vector<std::size_t>>
soloTranscripts(const TransformerConfig &cfg,
                const ModelWeights &weights,
                const std::vector<RouterRequest> &trace)
{
    Engine engine(cfg, weights, ExecPath::Reference);
    std::vector<std::vector<std::size_t>> want;
    for (const RouterRequest &req : trace) {
        Sampler sampler(req.sampler, req.seed);
        want.push_back(
            engine.generate(req.prompt, req.decodeTokens, sampler));
    }
    return want;
}

[[noreturn]] void
fail(const char *what)
{
    std::fprintf(stderr, "FATAL: %s\n", what);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    using hnlpu::bench::banner;
    using hnlpu::bench::writeJsonFile;

    const hnlpu::bench::BenchArgs args =
        hnlpu::bench::BenchArgs::parse(argc, argv);
    const std::size_t requests =
        args.positionalUint(0, args.smoke ? 24 : 56);
    const std::string json_path = args.jsonPath(1, "BENCH_router.json");

    const TransformerConfig cfg = scaledGptOssBlock();
    const ModelWeights weights = ModelWeights::randomInit(cfg, 7);

    banner("Router chaos: 4 shards, heavy-tail arrivals, mid-run "
           "faults (" + cfg.name + ")");

    // -- chaos run --------------------------------------------------------

    RouterConfig rc;
    rc.shards = 4;
    rc.slotsPerShard = 2;
    rc.batchQueueCapacity = 32; // backpressure sheds the burst's tail
    rc.interactiveQueueCapacity = 64;
    const auto trace = makeTrace(cfg, requests, true, 1234);
    const auto want = soloTranscripts(cfg, weights, trace);

    ServingRouter router(cfg, weights, ExecPath::Reference, 8, {}, rc);
    std::size_t front_door_shed = 0;
    for (const RouterRequest &req : trace) {
        const EnqueueResult res = router.enqueue(req);
        if (!res.admitted()) {
            if (res.reason != RejectReason::QueueFull)
                fail("enqueue refused for a non-backpressure reason");
            ++front_door_shed;
        }
    }

    // Seeded fault schedule: repairable hit on shard 1, unrepairable
    // kill of shard 2 (1 of 4), lossy link on shard 3.
    ShardFaultEvent repaired;
    repaired.step = 12;
    repaired.shard = 1;
    repaired.modelFaults.seed = 21;
    repaired.modelFaults.deadRowRate = 0.005;
    repaired.modelFaults.spareRows = 128;
    router.scheduleFault(repaired);

    ShardFaultEvent killed;
    killed.step = 30;
    killed.shard = 2;
    killed.modelFaults.seed = 9;
    killed.modelFaults.stuckBitRate = 0.05;
    killed.modelFaults.deadRowRate = 0.05;
    killed.modelFaults.spareRows = 0;
    router.scheduleFault(killed);

    ShardFaultEvent lossy;
    lossy.step = 48;
    lossy.shard = 3;
    lossy.linkFaults.seed = 5;
    lossy.linkFaults.retryProbability = 0.4;
    router.scheduleFault(lossy);

    const auto outcomes = router.run();
    const RouterStats &stats = router.stats();

    // -- inline contract verification -------------------------------------

    if (outcomes.size() != trace.size())
        fail("outcome count mismatch");
    std::size_t completed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RouterOutcome &out = outcomes[i];
        if (out.status == RequestStatus::Completed) {
            ++completed;
            if (out.tokens != want[i])
                fail("completed request diverged from clean solo "
                     "Engine::generate");
            continue;
        }
        // Sheds only by stated policy, always typed.
        switch (out.reason) {
          case RejectReason::QueueFull:
          case RejectReason::DeadlineExpired:
          case RejectReason::RetriesExhausted:
            break;
          default:
            fail("shed/cancel with a reason outside the stated "
                 "policy");
        }
    }
    if (completed < requests / 2)
        fail("chaos run completed fewer than half the requests");
    if (router.degradedMode())
        fail("degraded mode raised while healthy shards remained");
    if (router.shardState(1) != ShardState::Healthy)
        fail("spare-repaired shard did not stay healthy");
    if (router.shardState(2) != ShardState::Drained)
        fail("corrupted shard was not drained");
    if (router.shardState(3) != ShardState::Degraded)
        fail("lossy-link shard was not degraded");
    if (stats.probeFailures != 1 || stats.faultsInjected != 3)
        fail("fault schedule was not applied as configured");
    if (stats.recoveries.empty())
        fail("drained shard produced no recovery record");

    double recovery_seconds = 0.0;
    std::size_t recovery_steps = 0;
    for (const RecoveryRecord &rec : stats.recoveries) {
        if (rec.recoverySeconds > recovery_seconds)
            recovery_seconds = rec.recoverySeconds;
        const std::size_t steps = rec.recoveredStep - rec.faultStep;
        if (steps > recovery_steps)
            recovery_steps = steps;
    }
    const double shed_rate =
        double(stats.shed + stats.cancelled) / double(stats.requests);

    Table table({"Metric", "Value"});
    table.addRow({"requests", std::to_string(stats.requests)});
    table.addRow({"completed", std::to_string(stats.completed)});
    table.addRow({"shed (typed)", std::to_string(stats.shed)});
    table.addRow({"cancelled", std::to_string(stats.cancelled)});
    table.addRow({"failovers", std::to_string(stats.failovers)});
    table.addRow({"retries", std::to_string(stats.retries)});
    table.addRow(
        {"goodput tok/s",
         commaString(stats.goodputTokensPerSecond, 2)});
    table.addRow({"shed rate", commaString(shed_rate, 3)});
    table.addRow({"TTFT p99 ms",
                  commaString(stats.ttftP99Seconds * 1e3, 2)});
    table.addRow({"recovery ms",
                  commaString(recovery_seconds * 1e3, 2)});
    table.addRow({"recovery steps", std::to_string(recovery_steps)});
    table.print();

    // -- clean-config parity vs the PR 4 ServingEngine ---------------------

    banner("Clean-config parity: ServingEngine vs 1-shard router");
    const std::size_t parity_requests =
        requests / 2 > 8 ? requests / 2 : 8;
    const auto parity_trace =
        makeTrace(cfg, parity_requests, false, 77);

    Engine serving_engine(cfg, weights, ExecPath::Reference);
    ServingEngine serving(serving_engine, 4);
    for (const RouterRequest &req : parity_trace) {
        ServingRequest sr;
        sr.prompt = req.prompt;
        sr.decodeTokens = req.decodeTokens;
        sr.arrivalStep = req.arrivalStep;
        sr.sampler = req.sampler;
        sr.seed = req.seed;
        if (!serving.tryEnqueue(sr).admitted())
            fail("parity request rejected");
    }
    const auto serving_outcomes = serving.run();
    const double serving_tps =
        serving.stats().aggregateTokensPerSecond;

    RouterConfig parity_rc;
    parity_rc.shards = 1;
    parity_rc.slotsPerShard = 4;
    ServingRouter parity_router(cfg, weights, ExecPath::Reference, 8,
                                {}, parity_rc);
    for (const RouterRequest &req : parity_trace) {
        if (!parity_router.enqueue(req).admitted())
            fail("parity enqueue refused");
    }
    const auto parity_outcomes = parity_router.run();
    const double router_tps =
        parity_router.stats().goodputTokensPerSecond;

    for (std::size_t i = 0; i < parity_trace.size(); ++i) {
        if (parity_outcomes[i].status != RequestStatus::Completed)
            fail("parity run shed a request on a clean fleet");
        if (parity_outcomes[i].tokens != serving_outcomes[i].tokens)
            fail("router and ServingEngine decoded different tokens "
                 "on the clean config");
    }
    const double ratio =
        serving_tps > 0.0 ? router_tps / serving_tps : 0.0;
    std::printf("ServingEngine %s tok/s, router %s tok/s "
                "(ratio %.3f)\n",
                commaString(serving_tps, 2).c_str(),
                commaString(router_tps, 2).c_str(), ratio);
    if (ratio < 0.5 || ratio > 2.0)
        fail("clean-config router throughput far from ServingEngine");

    // -- shared system prompt: prefix cache off vs on ----------------------

    banner("Shared system prompt: prefix cache off vs on (2 shards, "
           "mid-run repairable fault)");
    struct SharedRow
    {
        std::size_t percent = 0;
        double offTps = 0, onTps = 0;
        double offTtftP50 = 0, onTtftP50 = 0;
        std::size_t hits = 0, misses = 0, probeHits = 0;
    };
    std::vector<SharedRow> shared_rows;
    Table ptable({"Shared %", "tok/s off", "tok/s on", "TTFT p50 off "
                  "ms", "TTFT p50 on ms", "Prefix hits"});
    for (const std::size_t percent : {0u, 50u, 90u}) {
        // No deadlines and roomy queues: every request must complete
        // in both runs so the bit-identity sweep covers the full
        // trace.  The repairable mid-run fault exercises
        // invalidation-on-repair with the prefix cache live.
        const auto strace =
            makeTrace(cfg, requests, false, 99, percent, 32);
        SharedRow row;
        row.percent = percent;
        std::vector<RouterOutcome> outs_off, outs_on;
        for (const bool with_prefix : {false, true}) {
            RouterConfig src;
            src.shards = 2;
            src.slotsPerShard = 2;
            src.prefixCache = with_prefix;
            ServingRouter srouter(cfg, weights, ExecPath::Reference,
                                  8, {}, src);
            for (const RouterRequest &req : strace) {
                if (!srouter.enqueue(req).admitted())
                    fail("shared-prefix enqueue refused");
            }
            ShardFaultEvent mid;
            mid.step = 40;
            mid.shard = 1;
            mid.modelFaults.seed = 21;
            mid.modelFaults.deadRowRate = 0.005;
            mid.modelFaults.spareRows = 128;
            srouter.scheduleFault(mid);
            auto outs = srouter.run();
            const RouterStats &s = srouter.stats();
            if (s.completed != strace.size())
                fail("shared-prefix run did not complete the trace");
            if (with_prefix) {
                row.onTps = s.goodputTokensPerSecond;
                row.onTtftP50 = s.ttftP50Seconds;
                row.hits = s.prefixHits;
                row.misses = s.prefixMisses;
                row.probeHits = s.probePrefixHits;
                outs_on = std::move(outs);
            } else {
                row.offTps = s.goodputTokensPerSecond;
                row.offTtftP50 = s.ttftP50Seconds;
                outs_off = std::move(outs);
            }
        }
        // Bit-identity: prefix sharing must not change one decoded
        // token, at any mix, through the mid-run fault.
        for (std::size_t i = 0; i < strace.size(); ++i) {
            if (outs_on[i].tokens != outs_off[i].tokens)
                fail("prefix cache changed decoded tokens");
        }
        ptable.addRow({std::to_string(row.percent),
                       commaString(row.offTps, 2),
                       commaString(row.onTps, 2),
                       commaString(row.offTtftP50 * 1e3, 2),
                       commaString(row.onTtftP50 * 1e3, 2),
                       std::to_string(row.hits)});
        shared_rows.push_back(row);
    }
    ptable.print();
    if (shared_rows.back().hits == 0)
        fail("90% shared mix produced no prefix hits");

    // -- BENCH_router.json --------------------------------------------------

    obs::JsonWriter w(2);
    w.beginObject();
    w.field("model", cfg.name);
    w.field("shards", rc.shards);
    w.field("slots_per_shard", rc.slotsPerShard);
    w.field("requests", requests);
    w.key("fault_schedule").beginArray();
    for (const ShardFaultEvent *ev : {&repaired, &killed, &lossy}) {
        w.beginObject()
            .field("step", ev->step)
            .field("shard", ev->shard)
            .field("stuck_bit_rate", ev->modelFaults.stuckBitRate)
            .field("dead_row_rate", ev->modelFaults.deadRowRate)
            .field("spare_rows", ev->modelFaults.spareRows)
            .field("link_retry_probability",
                   ev->linkFaults.retryProbability)
            .field("kill_link", ev->killLink)
            .endObject();
    }
    w.endArray();
    w.key("chaos")
        .beginObject()
        .field("goodput_tokens_per_second",
               stats.goodputTokensPerSecond)
        .field("shed_rate", shed_rate)
        .field("ttft_p99_seconds", stats.ttftP99Seconds)
        .field("latency_p95_seconds", stats.latencyP95Seconds)
        .field("recovery_seconds", recovery_seconds)
        .field("recovery_steps", recovery_steps)
        .field("completed", stats.completed)
        .field("shed", stats.shed)
        .field("cancelled", stats.cancelled)
        .field("failovers", stats.failovers)
        .field("retries", stats.retries)
        .field("degraded_mode", stats.degradedMode)
        .key("metrics")
        .rawValue(router.metricsJson())
        .endObject();
    w.key("clean_parity")
        .beginObject()
        .field("requests", parity_requests)
        .field("serving_engine_tokens_per_second", serving_tps)
        .field("router_tokens_per_second", router_tps)
        .field("ratio", ratio)
        .endObject();
    w.key("shared_prefix").beginArray();
    for (const SharedRow &row : shared_rows) {
        w.beginObject()
            .field("shared_percent", row.percent)
            .field("shared_tokens", 32)
            .field("goodput_off_tokens_per_second", row.offTps)
            .field("goodput_on_tokens_per_second", row.onTps)
            .field("ttft_p50_off_seconds", row.offTtftP50)
            .field("ttft_p50_on_seconds", row.onTtftP50)
            .field("prefix_hits", row.hits)
            .field("prefix_misses", row.misses)
            .field("probe_prefix_hits", row.probeHits)
            .endObject();
    }
    w.endArray();
    w.endObject();
    writeJsonFile(json_path, w, "chaos + clean parity");
    return 0;
}
