/**
 * @file
 * Event-driven collectives on the unified simulation clock.
 *
 * The timed collectives (collectives.hh) compute an exact wire schedule
 * analytically on the fabric's link timelines.  This layer lifts that
 * schedule onto the global event clock: the collective is *issued* as an
 * event at its ready tick, every message becomes a delivery event at its
 * receive-complete tick, and the completion callback fires as an event
 * at the collective's done tick, carrying the per-operation message /
 * hop / retry accounting.
 *
 * The cross-validation contract (pinned in tests/test_noc.cc): because
 * the issue event invokes the very same timed implementation on the very
 * same fabric state, the event-driven path reproduces the analytic done
 * ticks, hop counts and CRC-retry counters bit-exactly -- it is a strict
 * superset (adds events, observability and composability with other
 * components on the clock), not a fork of the timing model.
 */

#ifndef HNLPU_NOC_EVENT_COLLECTIVES_HH
#define HNLPU_NOC_EVENT_COLLECTIVES_HH

#include <functional>

#include "noc/collectives.hh"
#include "sim/core.hh"

namespace hnlpu {

/** Runs fabric collectives as events on a sim::Simulation. */
class EventCollectives
{
  public:
    /** Per-operation accounting delivered to the completion callback. */
    struct Result
    {
        /** Tick the collective was issued. */
        Tick ready = 0;
        /** Tick every member holds the result. */
        Tick done = 0;
        /** Messages scheduled on the fabric. */
        std::uint64_t messages = 0;
        /** Total link hops across all messages. */
        std::uint64_t hopSum = 0;
        /** Fabric CRC retransmissions attributed to this operation. */
        std::uint64_t retries = 0;
        /** Fabric retry-budget exhaustions attributed to this op. */
        std::uint64_t timeouts = 0;
        /** Messages that took a two-hop route around a dead chip. */
        std::uint64_t rerouted = 0;
    };

    using Done = std::function<void(const Result &)>;

    EventCollectives(sim::Simulation &sim, Fabric &fabric);

    void broadcast(ChipId root, std::vector<ChipId> group, Bytes payload,
                   Tick ready, Done done);
    void allReduce(std::vector<ChipId> group, Bytes payload, Tick ready,
                   Done done);
    void gridAllReduce(Bytes payload, Tick ready, Done done);

    /** Message-delivery events executed so far (advances with the clock). */
    std::uint64_t deliveries() const { return deliveries_; }
    /** Collectives issued so far. */
    std::uint64_t operations() const { return operations_; }

    sim::Simulation &simulation() const { return sim_; }
    Fabric &fabric() const { return fabric_; }

  private:
    /** Issues the timed collective and returns its done tick. */
    using Issue = std::function<Tick(CollectiveLog &)>;

    void launch(Tick ready, Issue issue, Done done);

    sim::Simulation &sim_;
    Fabric &fabric_;
    std::uint64_t deliveries_ = 0;
    std::uint64_t operations_ = 0;
};

} // namespace hnlpu

#endif // HNLPU_NOC_EVENT_COLLECTIVES_HH
