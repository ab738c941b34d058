#include "noc/event_collectives.hh"

#include <utility>

#include "common/logging.hh"

namespace hnlpu {

EventCollectives::EventCollectives(sim::Simulation &sim, Fabric &fabric)
    : sim_(sim), fabric_(fabric)
{
}

void
EventCollectives::launch(Tick ready, Issue issue, Done done)
{
    hnlpu_assert(ready >= sim_.now(), "collective issued in the past");
    sim_.at(ready, [this, issue = std::move(issue),
                    done = std::move(done)] {
        // Snapshot the fabric counters so the deltas of exactly this
        // operation land in the Result (issue order is deterministic,
        // so attribution is exact).
        const std::uint64_t retries0 = fabric_.totalRetries();
        const std::uint64_t timeouts0 = fabric_.retryTimeouts();
        const std::uint64_t rerouted0 = fabric_.reroutedMessages();

        CollectiveLog log;
        Result res;
        res.ready = sim_.now();
        res.done = issue(log);
        res.messages = log.size();
        res.retries = fabric_.totalRetries() - retries0;
        res.timeouts = fabric_.retryTimeouts() - timeouts0;
        res.rerouted = fabric_.reroutedMessages() - rerouted0;
        for (const CollectiveMessage &msg : log) {
            res.hopSum += msg.hops;
            sim_.at(msg.received, [this] { ++deliveries_; });
        }
        ++operations_;
        if (done) {
            sim_.at(res.done,
                    [done = std::move(done), res] { done(res); });
        }
    });
}

void
EventCollectives::broadcast(ChipId root, std::vector<ChipId> group,
                            Bytes payload, Tick ready, Done done)
{
    launch(ready,
           [this, root, group = std::move(group), payload,
            ready](CollectiveLog &log) {
               return timedBroadcast(fabric_, root, group, payload,
                                     ready, &log);
           },
           std::move(done));
}

void
EventCollectives::allReduce(std::vector<ChipId> group, Bytes payload,
                            Tick ready, Done done)
{
    launch(ready,
           [this, group = std::move(group), payload,
            ready](CollectiveLog &log) {
               return timedAllReduce(fabric_, group, payload, ready,
                                     &log);
           },
           std::move(done));
}

void
EventCollectives::gridAllReduce(Bytes payload, Tick ready, Done done)
{
    launch(ready,
           [this, payload, ready](CollectiveLog &log) {
               return timedGridAllReduce(fabric_, payload, ready, &log);
           },
           std::move(done));
}

} // namespace hnlpu
