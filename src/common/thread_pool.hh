/**
 * @file
 * Deterministic fork-join thread pool for the functional engine.
 *
 * The HNLPU derives its throughput from massive spatial parallelism
 * across the Sea-of-Neurons array; on the host, the software analogue
 * is row, (expert, row-tile) and (sequence, head) data parallelism.
 * This pool is deliberately work-stealing-free: every parallelFor()
 * statically partitions [0, n) into contiguous chunks, so each worker
 * touches a disjoint slice of the output and parallel execution is
 * bit-exactly equal to serial execution (see DESIGN.md "Threading
 * model & determinism").
 *
 * Chunk selection is work-size aware: the number of chunks is the
 * minimum of the pool width, the CPUs the caller's affinity mask
 * allows (oversubscribing a compute-bound GEMV only adds context
 * switches), and n / grain (no point waking a worker for less than
 * `grain` elements of work).  Only the workers that actually received
 * a chunk are handed the job.  Chunk boundaries depend only on
 * (n, chunks, align), never on timing.
 *
 * The handoff is spin-then-park.  Each worker busy-waits on its own
 * cache-line-aligned generation word for kSpinBudget after its last
 * chunk, so a decode step's back-to-back jobs reach it without a
 * futex wake; only after the budget does it park on its condition
 * variable.  The caller likewise spins on the pending-chunk count
 * before it parks.  A halted vCPU takes tens of microseconds to wake,
 * which is the same order as one decode-step job.  A thread whose spin
 * is interrupted by another task (an oversubscribed host) parks
 * without spinning for a while, so it does not spend the time slice
 * its work needs.  See DESIGN.md "Targeted, spin-then-park handoff".
 *
 * Nested parallelFor() calls (e.g. a row-parallel Linear::forwardBatch
 * called from a task already running on the pool) are detected via a
 * thread-local flag and run inline on the calling thread, so the pool
 * can never deadlock on itself.
 */

#ifndef HNLPU_COMMON_THREAD_POOL_HH
#define HNLPU_COMMON_THREAD_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace hnlpu {

/**
 * Observer hook invoked on the executing thread around every non-empty
 * chunk of a parallelFor job (the caller's chunk included, and a job
 * that collapses to a single inline chunk still reports that chunk --
 * trace coverage must not depend on how many CPUs the host has).
 * Only nested parallel regions running inline inside an enclosing
 * chunk are plain, unreported calls.
 *
 * This lives in common (not obs) so the pool carries no obs dependency;
 * obs::PoolTaskTracer implements it to emit trace spans.  Implementations
 * must be thread-safe: chunks run concurrently on all pool threads.
 */
class TaskObserver
{
  public:
    virtual ~TaskObserver() = default;
    virtual void chunkBegin(std::size_t begin, std::size_t end) = 0;
    virtual void chunkEnd(std::size_t begin, std::size_t end) = 0;
};

/** Fixed-size fork-join pool with static range partitioning. */
class ThreadPool
{
  public:
    /**
     * @param threads total parallelism including the calling thread;
     *        the pool spawns threads-1 workers.  threads <= 1 spawns
     *        nothing and parallelFor() degenerates to a serial loop.
     * @param cap_to_hardware clamp the per-job chunk count to the
     *        number of CPUs in the calling thread's affinity mask
     *        (Linux; std::thread::hardware_concurrency elsewhere).
     *        The pool's hot loops are compute bound, and its workers
     *        spin between jobs, so running more chunks than CPUs burns
     *        time slices; tests that need forced concurrency (TSan
     *        interleaving on small machines) pass false.
     */
    explicit ThreadPool(std::size_t threads, bool cap_to_hardware = true);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers plus the calling thread). */
    std::size_t threadCount() const { return workers_.size() + 1; }

    /** Chunk-count clamp from the CPU affinity mask (0 == uncapped). */
    std::size_t hardwareCap() const { return hwCap_; }

    /**
     * How long a worker waits for its next job, and the caller for its
     * workers, by busy-waiting before parking on a condition variable.
     * Long enough to bridge the gaps between a decode step's jobs; a
     * budget near 15 us lost most of the gain over parking at once.
     * Timed with steady_clock, because PAUSE latency varies several-
     * fold across x86 generations.
     */
    static constexpr std::chrono::microseconds kSpinBudget{60};

    /** Body invoked with a half-open index range [begin, end). */
    using RangeBody = std::function<void(std::size_t, std::size_t)>;

    /**
     * Body invoked as (chunk, begin, end): `chunk` is the static chunk
     * index in [0, threadCount()), stable for the duration of the job,
     * so callers can shard per-chunk accumulators (e.g. HnActivity)
     * into padded slots instead of merging under a mutex.
     */
    using ChunkBody =
        std::function<void(std::size_t, std::size_t, std::size_t)>;

    /**
     * Execute body over [0, n) split into effectiveChunks(n, grain,
     * threadCount(), hardwareCap()) contiguous chunks.  The calling
     * thread runs chunk 0 and waits until every chunk is done; only
     * workers that received a chunk are handed the job.  Chunk boundaries depend
     * only on (n, chunks, align), never on timing, so any per-index
     * output is deterministic; single-chunk jobs run inline.
     *
     * @param grain minimum elements per chunk -- size the chunk count
     *        to the work, not the pool (a 12-row GEMV on an 8-wide pool
     *        should not wake 7 workers)
     */
    void parallelFor(std::size_t n, const RangeBody &body,
                     std::size_t grain = 1);

    /**
     * As parallelFor, but the body also receives its chunk index and
     * chunk boundaries are rounded down to multiples of @p align
     * (coverage stays exact: chunk i's end is chunk i+1's begin and the
     * last chunk always ends at n).  Aligning to a cache line's worth
     * of output elements stops adjacent workers from false-sharing the
     * line that straddles a chunk boundary.
     */
    void parallelForChunked(std::size_t n, const ChunkBody &body,
                            std::size_t grain = 1, std::size_t align = 1);

    /** The static chunk assigned to @p index out of @p chunks. */
    static std::pair<std::size_t, std::size_t> chunkRange(
        std::size_t index, std::size_t chunks, std::size_t n);

    /**
     * chunkRange with interior boundaries rounded down to multiples of
     * @p align.  The rounded boundaries remain monotone and contiguous
     * (both sides of a boundary round the same raw value), so the
     * chunks still cover [0, n) exactly; individual chunks may come
     * out empty.
     */
    static std::pair<std::size_t, std::size_t> alignedChunkRange(
        std::size_t index, std::size_t chunks, std::size_t n,
        std::size_t align);

    /**
     * Chunk count for a job of @p n elements: min(threads, hw_cap
     * (when nonzero), n / grain (at least 1), n).  This is the
     * work-size-aware selection parallelFor uses -- small jobs get few
     * chunks no matter how wide the pool is.
     */
    static std::size_t effectiveChunks(std::size_t n, std::size_t grain,
                                       std::size_t threads,
                                       std::size_t hw_cap);

    /**
     * Pin the calling thread and every worker round-robin across the
     * CPUs in the calling thread's affinity mask, so a pool started
     * under taskset stays inside it (Linux only; a no-op elsewhere).
     * The destructor, when it runs on the pinned calling thread, gives
     * that thread its mask back, so a later pool on it is neither
     * capped nor pinned to the one CPU this pool left it on.
     * Benchmarks use this so scaling numbers measure the kernel, not
     * the scheduler's migration choices.
     */
    void pinThreads();

    /**
     * Install (or clear, with nullptr) the chunk observer.  Must not be
     * called while a parallelFor is in flight, nor concurrently with
     * one from another thread (jobs read the observer without a lock);
     * the observer must outlive its installation.
     */
    void setObserver(TaskObserver *observer);

  private:
    /** Target value that tells a worker to exit. */
    static constexpr std::uint64_t kStop = ~std::uint64_t{0};

    /**
     * Per-worker handoff state, on its own cache line.  The caller
     * release-stores a job's generation into the target of each worker
     * that owns a chunk of it; the worker spins on its target, then
     * parks on `cv`.  A worker outside a job's chunk count never sees
     * its target move, so it never reads the job fields, which the
     * next job may already be overwriting.
     */
    struct alignas(64) Worker
    {
        std::atomic<std::uint64_t> target{0}; //!< generation to join
        std::atomic<bool> parked{false}; //!< set under mutex_ on cv
        //! Spinning is skipped until then (the worker's own field).
        std::chrono::steady_clock::time_point spinResumes{};
        std::condition_variable cv;
        std::thread thread;
    };

    void workerLoop(std::size_t worker_index);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::mutex mutex_; //!< only for parking on a cv and waking from it
    std::condition_variable done_;
    std::atomic<bool> callerParked_{false}; //!< set under mutex_ on done_
    //! The caller skips spinning until then (see Worker::spinResumes).
    std::chrono::steady_clock::time_point callerSpinResumes_{};
    alignas(64) std::atomic<std::size_t> pending_{0}; //!< chunks running
    // The job fields: written by the caller before it publishes the
    // job's generation, read only by that job's participants.
    std::uint64_t generation_ = 0;
    const ChunkBody *body_ = nullptr;
    std::size_t jobSize_ = 0;
    std::size_t jobChunks_ = 0;
    std::size_t jobAlign_ = 1;
    std::size_t hwCap_ = 0;
    TaskObserver *observer_ = nullptr;
#if defined(__linux__)
    // The thread pinThreads pinned, and its mask from before.
    bool callerPinned_ = false;
    pthread_t callerThread_{};
    cpu_set_t callerMask_{};
#endif
};

/**
 * Convenience wrapper used throughout the engine: runs @p body over
 * [0, n) on @p pool, or serially inline when @p pool is null.  All hot
 * paths take an optional ThreadPool* and call this, so a null pool is
 * exactly the pre-threading serial code path.
 */
void parallelFor(ThreadPool *pool, std::size_t n,
                 const ThreadPool::RangeBody &body, std::size_t grain = 1);

/** Chunk-indexed variant of the wrapper; serial inline runs chunk 0. */
void parallelForChunked(ThreadPool *pool, std::size_t n,
                        const ThreadPool::ChunkBody &body,
                        std::size_t grain = 1, std::size_t align = 1);

} // namespace hnlpu

#endif // HNLPU_COMMON_THREAD_POOL_HH
