#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hnlpu {
namespace sim {

// -- Component ------------------------------------------------------------

Component::Component(Simulation &sim, std::string name)
    : sim_(sim), name_(std::move(name))
{
    sim_.addComponent(this);
}

Component::~Component()
{
    sim_.removeComponent(this);
}

// -- Simulation -----------------------------------------------------------

void
Simulation::addComponent(Component *c)
{
    components_.push_back(c);
}

void
Simulation::removeComponent(Component *c)
{
    components_.erase(
        std::remove(components_.begin(), components_.end(), c),
        components_.end());
}

// -- Port -----------------------------------------------------------------

Port::Port(Simulation &sim, std::string name, std::size_t capacity)
    : Component(sim, std::move(name)), capacity_(capacity)
{
    hnlpu_assert(capacity_ > 0, "port ", this->name(),
                 " needs capacity >= 1");
}

bool
Port::tryPush(Packet p)
{
    if (full()) {
        ++stalls_;
        return false;
    }
    q_.push_back(p);
    ++pushes_;
    wakeOneDataWaiter();
    return true;
}

bool
Port::tryPop(Packet &out)
{
    if (q_.empty())
        return false;
    out = q_.front();
    q_.pop_front();
    ++pops_;
    wakeOneSpaceWaiter();
    return true;
}

void
Port::whenSpace(EventQueue::Callback cb)
{
    if (!full()) {
        sim_.at(sim_.now(), std::move(cb));
        return;
    }
    spaceWaiters_.push_back(std::move(cb));
}

void
Port::whenData(EventQueue::Callback cb)
{
    if (!q_.empty()) {
        sim_.at(sim_.now(), std::move(cb));
        return;
    }
    dataWaiters_.push_back(std::move(cb));
}

void
Port::wakeOneSpaceWaiter()
{
    if (spaceWaiters_.empty())
        return;
    sim_.at(sim_.now(), std::move(spaceWaiters_.front()));
    spaceWaiters_.pop_front();
}

void
Port::wakeOneDataWaiter()
{
    if (dataWaiters_.empty())
        return;
    sim_.at(sim_.now(), std::move(dataWaiters_.front()));
    dataWaiters_.pop_front();
}

std::vector<Packet>
Port::drain()
{
    std::vector<Packet> dropped(q_.begin(), q_.end());
    q_.clear();
    // Space just opened up; waiters re-check, so waking them all is safe.
    while (!spaceWaiters_.empty())
        wakeOneSpaceWaiter();
    return dropped;
}

// -- WireParams -----------------------------------------------------------

Tick
WireParams::serializationTicks(Bytes payload) const
{
    hnlpu_assert(bandwidth > 0 && efficiency > 0, "bad wire params");
    const Seconds s = (payload + perMessageOverhead) /
                      (bandwidth * efficiency);
    return toTicks(s);
}

Tick
WireParams::latencyTicks() const
{
    return toTicks(latency);
}

// -- Connection -----------------------------------------------------------

Connection::Connection(Simulation &sim, std::string name, WireParams wire,
                       Port &dst)
    : Component(sim, std::move(name)), wire_(wire), dst_(dst),
      rng_(wire.seed ^ 0x9e3779b97f4a7c15ULL)
{
    hnlpu_assert(wire_.retryProbability >= 0.0 &&
                 wire_.retryProbability < 1.0,
                 "retry probability must be in [0,1)");
}

void
Connection::send(Packet p)
{
    txq_.push_back(p);
    pump();
}

void
Connection::pump()
{
    if (busy_ || txq_.empty())
        return;
    busy_ = true;
    inflight_ = txq_.front();
    haveInflight_ = true;
    txq_.pop_front();

    // The whole retry schedule is decided up front from the per-wire
    // deterministic stream, exactly like the analytical link model: a
    // failed CRC costs a backoff and a retransmission; an exhausted
    // retry budget costs the management-layer penalty plus one final
    // re-issue that is assumed to succeed.
    const Tick ser = wire_.serializationTicks(inflight_.bytes);
    Tick occupancy = 0;
    Seconds backoff = wire_.initialBackoff;
    for (unsigned attempt = 0;; ++attempt) {
        occupancy += ser;
        if (wire_.retryProbability <= 0.0 ||
            rng_.uniform01() >= wire_.retryProbability) {
            break;
        }
        if (attempt >= wire_.maxRetries) {
            ++timeouts_;
            occupancy += toTicks(wire_.timeoutPenalty) + ser;
            break;
        }
        ++retries_;
        occupancy += toTicks(backoff);
        backoff *= wire_.backoffMultiplier;
    }
    busyTicks_ += occupancy;

    const Tick arrival = sim_.now() + occupancy + wire_.latencyTicks();
    const std::uint64_t epoch = epoch_;
    const Packet p = inflight_;
    sim_.at(arrival, [this, p, arrival, epoch] {
        tryDeliver(p, arrival, epoch);
    });
}

void
Connection::tryDeliver(Packet p, Tick nominalArrival, std::uint64_t epoch)
{
    if (epoch != epoch_)
        return; // aborted while in flight
    if (!dst_.tryPush(p)) {
        // Head-of-line back-pressure: the wire stays busy until the
        // destination accepts, so upstream senders observe the stall.
        dst_.whenSpace([this, p, nominalArrival, epoch] {
            tryDeliver(p, nominalArrival, epoch);
        });
        return;
    }
    stallTicks_ += sim_.now() - nominalArrival;
    ++delivered_;
    busy_ = false;
    haveInflight_ = false;
    pump();
}

std::vector<Packet>
Connection::abort()
{
    std::vector<Packet> undelivered;
    undelivered.reserve(txq_.size() + 1);
    if (haveInflight_)
        undelivered.push_back(inflight_);
    for (const Packet &p : txq_)
        undelivered.push_back(p);
    txq_.clear();
    busy_ = false;
    haveInflight_ = false;
    ++epoch_; // invalidate in-flight wire events
    return undelivered;
}

// -- StepClock ------------------------------------------------------------

StepClock::StepClock(Simulation &sim, Tick ticksPerStep)
    : sim_(sim), base_(sim.now()), ticksPerStep_(ticksPerStep)
{
    hnlpu_assert(ticksPerStep_ > 0, "ticksPerStep must be positive");
}

void
StepClock::jumpTo(std::size_t step)
{
    hnlpu_assert(step >= step_, "StepClock cannot move backwards: ",
                 step, " < ", step_);
    // Run the window first so events co-scheduled inside it observe
    // the step that owns it (step() stays on the old step until the
    // crossing completes).
    sim_.run(tickOf(step));
    step_ = step;
}

} // namespace sim
} // namespace hnlpu
