#include "hn/hn_kernel.hh"

namespace hnlpu {

namespace {

/**
 * Home slot of the calling thread: consecutive thread registrations
 * spread across the slot array, and a thread always probes from its
 * own slot first, so release-then-acquire from one thread round-trips
 * the same scratch (maximising CachedPlanes hits) while concurrent
 * threads touch disjoint slots (no contention, no false sharing on the
 * slot word in steady state).
 */
std::size_t
threadSlotHome()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t home =
        next.fetch_add(1, std::memory_order_relaxed) %
        HnScratchArena::kSlots;
    return home;
}

} // namespace

void
HnScratch::ensureSlots(std::size_t slots)
{
    if (batchPlanes.size() < slots) {
        batchPlanes.resize(slots);
        quantized.resize(slots);
        planes.resize(slots);
        columns.resize(slots);
    }
}

HnScratchArena::~HnScratchArena()
{
    for (auto &slot : slots_)
        delete slot.exchange(nullptr, std::memory_order_acquire);
}

std::unique_ptr<HnScratch>
HnScratchArena::acquire()
{
    const std::size_t home = threadSlotHome();
    for (std::size_t k = 0; k < kSlots; ++k) {
        auto &slot = slots_[(home + k) % kSlots];
        // Cheap load first: an exchange on an empty slot would still
        // bounce the cache line between probing threads.
        if (slot.load(std::memory_order_relaxed) == nullptr)
            continue;
        // Acquire pairs with release() so the new owner sees every
        // write the previous owner made into the scratch buffers.
        if (HnScratch *scratch =
                slot.exchange(nullptr, std::memory_order_acquire))
            return std::unique_ptr<HnScratch>(scratch);
    }
    return std::make_unique<HnScratch>();
}

void
HnScratchArena::release(std::unique_ptr<HnScratch> scratch)
{
    if (!scratch)
        return;
    HnScratch *raw = scratch.release();
    const std::size_t home = threadSlotHome();
    for (std::size_t k = 0; k < kSlots; ++k) {
        auto &slot = slots_[(home + k) % kSlots];
        if (slot.load(std::memory_order_relaxed) != nullptr)
            continue;
        HnScratch *expected = nullptr;
        if (slot.compare_exchange_strong(expected, raw,
                                         std::memory_order_release,
                                         std::memory_order_relaxed))
            return;
    }
    // Every slot occupied: more than kSlots concurrent leases just
    // drained.  Freeing is correct (the arena is a cache, not an
    // owner-of-record) and cannot recur in steady state.
    delete raw;
}

std::size_t
HnScratchArena::idleCount() const
{
    std::size_t count = 0;
    for (const auto &slot : slots_) {
        if (slot.load(std::memory_order_relaxed) != nullptr)
            ++count;
    }
    return count;
}

HnScratchLease::HnScratchLease(HnScratchArena *arena)
    : arena_(arena),
      scratch_(arena ? arena->acquire() : std::make_unique<HnScratch>())
{
}

HnScratchLease::~HnScratchLease()
{
    if (arena_)
        arena_->release(std::move(scratch_));
}

} // namespace hnlpu
