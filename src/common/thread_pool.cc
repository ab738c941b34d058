#include "common/thread_pool.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hnlpu {

namespace {

/**
 * True while this thread is executing a parallelFor body.  A nested
 * parallelFor (from a worker or from the caller's own chunk) runs
 * inline instead of re-entering the pool, which would either deadlock
 * (worker waiting on itself) or clobber the in-flight job state.
 */
thread_local bool t_in_parallel_region = false;

/** Hint the core that this thread is busy-waiting. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
    // Elsewhere the loop spins bare: its atomic load cannot be hoisted.
}

/** How long a thread parks at once after its spin lost the CPU. */
constexpr std::chrono::milliseconds kSpinCooldown{20};

/**
 * Busy-wait until @p ready() holds or ThreadPool::kSpinBudget has
 * passed; returns the last ready() value.  The clock is read once per
 * 16 polls, well under a microsecond apart.  A gap between two reads
 * longer than the whole budget means another task ran on this CPU:
 * the host is oversubscribed, and spinning would spend the time slice
 * the work needs (and the scheduler's credit for having slept), so the
 * waiting thread skips spinning until @p resumes, kSpinCooldown later.
 */
template <typename Ready>
bool
spinUntil(const Ready &ready, std::chrono::steady_clock::time_point &resumes)
{
    using Clock = std::chrono::steady_clock;
    auto now = Clock::now();
    if (now < resumes)
        return ready();
    const auto deadline = now + ThreadPool::kSpinBudget;
    for (;;) {
        for (int poll = 0; poll < 16; ++poll) {
            if (ready())
                return true;
            cpuRelax();
        }
        const auto last = now;
        now = Clock::now();
        if (now - last > ThreadPool::kSpinBudget) {
            resumes = now + kSpinCooldown;
            return ready();
        }
        if (now >= deadline)
            return ready();
    }
}

#if defined(__linux__)
/** The CPUs in the calling thread's affinity mask; empty if unknown. */
std::vector<unsigned>
allowedCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return {};
    std::vector<unsigned> cpus;
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

/** Pin @p handle to @p cpu. */
void
pinToCpu(pthread_t handle, unsigned cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(handle, sizeof(set), &set);
}
#endif

} // namespace

ThreadPool::ThreadPool(std::size_t threads, bool cap_to_hardware)
{
    if (cap_to_hardware) {
#if defined(__linux__)
        hwCap_ = allowedCpus().size();
#endif
        if (hwCap_ == 0)
            hwCap_ = std::thread::hardware_concurrency(); // 0 == unknown
    }
    if (threads <= 1)
        return;
    // Construct every Worker slot before any thread starts: workerLoop
    // indexes workers_ and must never observe the vector mid-growth.
    workers_.reserve(threads - 1);
    for (std::size_t i = 1; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    for (std::size_t i = 1; i < threads; ++i)
        workers_[i - 1]->thread = std::thread([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
#if defined(__linux__)
    // Give the thread that pinThreads pinned its own mask back, so a
    // pool built after this one is neither capped nor pinned to the one
    // CPU this pool left it on.  Only that thread can be sure it is
    // still alive, so a pool destroyed elsewhere leaves the pin.
    if (callerPinned_ && pthread_equal(callerThread_, pthread_self()))
        sched_setaffinity(0, sizeof(callerMask_), &callerMask_);
#endif
    for (auto &worker : workers_)
        worker->target.store(kStop);
    {
        // A parked worker re-checks its target under mutex_ before it
        // blocks, so notifying under the lock cannot be lost.
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &worker : workers_)
            worker->cv.notify_one();
    }
    for (auto &worker : workers_)
        worker->thread.join();
}

std::pair<std::size_t, std::size_t>
ThreadPool::chunkRange(std::size_t index, std::size_t chunks,
                       std::size_t n)
{
    hnlpu_assert(chunks > 0 && index < chunks, "chunk index range");
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    const std::size_t begin =
        index * base + std::min(index, extra);
    const std::size_t size = base + (index < extra ? 1 : 0);
    return {begin, begin + size};
}

std::pair<std::size_t, std::size_t>
ThreadPool::alignedChunkRange(std::size_t index, std::size_t chunks,
                              std::size_t n, std::size_t align)
{
    auto [begin, end] = chunkRange(index, chunks, n);
    if (align > 1) {
        // Interior boundaries round down to the alignment; the outer
        // boundaries (0 and n) are fixed, so coverage stays exact and
        // contiguous: both sides of an interior boundary round the
        // same raw value.
        if (index > 0)
            begin -= begin % align;
        if (index + 1 < chunks)
            end -= end % align;
    }
    return {begin, end};
}

std::size_t
ThreadPool::effectiveChunks(std::size_t n, std::size_t grain,
                            std::size_t threads, std::size_t hw_cap)
{
    std::size_t chunks = std::max<std::size_t>(1, threads);
    if (hw_cap > 0)
        chunks = std::min(chunks, hw_cap);
    if (grain > 1)
        chunks = std::min(chunks,
                          std::max<std::size_t>(1, n / grain));
    return std::max<std::size_t>(1, std::min(chunks, n));
}

void
ThreadPool::setObserver(TaskObserver *observer)
{
    observer_ = observer;
}

void
ThreadPool::pinThreads()
{
#if defined(__linux__)
    const std::vector<unsigned> cpus = allowedCpus();
    if (cpus.empty())
        return;
    if (!callerPinned_ &&
        sched_getaffinity(0, sizeof(callerMask_), &callerMask_) == 0) {
        callerPinned_ = true;
        callerThread_ = pthread_self();
    }
    pinToCpu(pthread_self(), cpus[0]);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        pinToCpu(workers_[i]->thread.native_handle(),
                 cpus[(i + 1) % cpus.size()]);
    }
#endif
}

void
ThreadPool::parallelFor(std::size_t n, const RangeBody &body,
                        std::size_t grain)
{
    // Thin adapter: the chunk index is dropped.  The wrapper captures
    // one pointer, so the std::function stays in its small buffer.
    const ChunkBody chunk_body =
        [&body](std::size_t, std::size_t begin, std::size_t end) {
            body(begin, end);
        };
    parallelForChunked(n, chunk_body, grain, 1);
}

void
ThreadPool::parallelForChunked(std::size_t n, const ChunkBody &body,
                               std::size_t grain, std::size_t align)
{
    if (n == 0)
        return;
    const std::size_t chunks =
        effectiveChunks(n, grain, threadCount(), hwCap_);
    if (t_in_parallel_region) {
        // Nested region: plain inline call, never reported -- the
        // enclosing chunk's span already covers this work.
        body(0, 0, n);
        return;
    }
    if (chunks <= 1) {
        // The job still executed on the pool (as its one chunk), so
        // the observer sees it -- a narrow machine or a tiny n must
        // not silently drop pool.chunk trace coverage.  setObserver's
        // contract lets every job read observer_ without a lock.
        if (observer_)
            observer_->chunkBegin(0, n);
        body(0, 0, n);
        if (observer_)
            observer_->chunkEnd(0, n);
        return;
    }

    // Exact-coverage check: the static partition must start at 0 and
    // end at n (interior contiguity is structural -- adjacent chunks
    // round the same raw boundary).
    hnlpu_assert(alignedChunkRange(0, chunks, n, align).first == 0 &&
                     alignedChunkRange(chunks - 1, chunks, n, align)
                             .second == n,
                 "parallelFor chunk cover is not exact: n=", n,
                 " chunks=", chunks, " align=", align);

    // The previous job has fully drained (pending_ reached 0), so no
    // worker is reading the job fields while they are rewritten.
    body_ = &body;
    jobSize_ = n;
    jobChunks_ = chunks;
    jobAlign_ = align;
    pending_.store(chunks - 1, std::memory_order_relaxed);
    ++generation_;
    // Hand the job only to the workers that own a chunk.  Each store
    // publishes the fields above to that worker's load of its target;
    // the store-then-load of `parked` pairs with the worker's
    // store-then-load (both seq_cst), so a worker either sees its new
    // target before parking or is seen parked here and notified.
    bool any_parked = false;
    for (std::size_t i = 1; i < chunks; ++i) {
        workers_[i - 1]->target.store(generation_);
        any_parked |= workers_[i - 1]->parked.load();
    }
    if (any_parked) {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 1; i < chunks; ++i) {
            if (workers_[i - 1]->parked.load())
                workers_[i - 1]->cv.notify_one();
        }
    }

    // The calling thread always takes chunk 0.  If it throws, the
    // workers are still running the body, whose captures the unwinding
    // would destroy: wait for them first, then rethrow.
    const auto [begin, end] = alignedChunkRange(0, chunks, n, align);
    std::exception_ptr error;
    t_in_parallel_region = true;
    try {
        if (begin < end) {
            if (observer_)
                observer_->chunkBegin(begin, end);
            body(0, begin, end);
            if (observer_)
                observer_->chunkEnd(begin, end);
        }
    } catch (...) {
        error = std::current_exception();
    }
    t_in_parallel_region = false;

    const auto drained = [this] { return pending_.load() == 0; };
    if (!spinUntil(drained, callerSpinResumes_)) {
        std::unique_lock<std::mutex> lock(mutex_);
        callerParked_.store(true);
        done_.wait(lock, drained);
        callerParked_.store(false);
    }
    body_ = nullptr;
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::workerLoop(std::size_t worker_index)
{
    Worker &self = *workers_[worker_index - 1];
    std::uint64_t seen = 0;
    const auto handed = [&] { return self.target.load() != seen; };
    for (;;) {
        if (!spinUntil(handed, self.spinResumes)) {
            std::unique_lock<std::mutex> lock(mutex_);
            self.parked.store(true);
            self.cv.wait(lock, handed);
            self.parked.store(false);
        }
        seen = self.target.load();
        if (seen == kStop)
            return;

        // This worker owns a chunk of job `seen`: the caller wrote the
        // job fields before publishing it and rewrites them only after
        // pending_ drains, which needs this worker's decrement below.
        const auto [begin, end] =
            alignedChunkRange(worker_index, jobChunks_, jobSize_,
                              jobAlign_);
        t_in_parallel_region = true;
        if (begin < end) {
            if (observer_)
                observer_->chunkBegin(begin, end);
            (*body_)(worker_index, begin, end);
            if (observer_)
                observer_->chunkEnd(begin, end);
        }
        t_in_parallel_region = false;

        // Same pairing as the wake: the last decrement either lands
        // before the caller's parked check or sees callerParked_.
        if (pending_.fetch_sub(1) == 1 && callerParked_.load()) {
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_one();
        }
    }
}

void
parallelFor(ThreadPool *pool, std::size_t n,
            const ThreadPool::RangeBody &body, std::size_t grain)
{
    if (n == 0)
        return;
    if (pool)
        pool->parallelFor(n, body, grain);
    else
        body(0, n);
}

void
parallelForChunked(ThreadPool *pool, std::size_t n,
                   const ThreadPool::ChunkBody &body, std::size_t grain,
                   std::size_t align)
{
    if (n == 0)
        return;
    if (pool)
        pool->parallelForChunked(n, body, grain, align);
    else
        body(0, 0, n);
}

} // namespace hnlpu
