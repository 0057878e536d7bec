/**
 * @file
 * A small fixed-size thread pool for fanning independent simulation
 * work items across cores.
 *
 * The simulator's parallelism is embarrassingly regular: a convolution
 * layer is w.m independent per-filter-batch array programs, a pooling
 * layer is independent output windows, a stage's branches and a
 * batch's images are independent chains. parallelFor() covers all of
 * these: it runs fn(i) for every i in [0, n), distributing indices
 * over the workers (plus the calling thread) through one shared
 * atomic cursor — no work stealing, no task graph.
 *
 * Determinism contract: tasks must write disjoint state (each task
 * owns its array / its slice of the output), so results are identical
 * for any thread count and any index-to-thread assignment. Statistics
 * are reduced by the caller after the join as order-independent sums.
 *
 * Sizing: an explicit constructor argument wins; 0 defers to the
 * NC_THREADS environment variable, then to the hardware concurrency.
 * A pool of size 1 spawns no threads at all and parallelFor() runs
 * inline, making the serial path zero-overhead.
 *
 * Shared callers: the pool has one job slot. Any number of outside
 * threads may call parallelFor() on one pool at once (two models of
 * one Engine compiling or running batches side by side); the first
 * takes the slot and the workers, and a caller that finds the slot
 * taken runs its whole loop inline on its own thread. By the
 * determinism contract the results are the same either way.
 */

#ifndef NC_COMMON_THREAD_POOL_HH
#define NC_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nc::common
{

/**
 * Process-unique nonzero id of the pool task the calling thread is
 * currently executing, 0 outside any task. Nested parallelFor() calls
 * run inline and therefore keep the outer task's id — the id names a
 * unit of concurrency, not a call depth. Debug builds only: always 0
 * under NDEBUG (the sram ownership race detector, its sole consumer,
 * is compiled out there too).
 */
uint64_t currentTaskId();

/** Fixed-size pool executing index-space loops. */
class ThreadPool
{
  public:
    /**
     * @param nthreads total workers including the caller; 0 = auto.
     * Worker threads spawn lazily on the first parallelFor() that can
     * use them, so serial consumers and short-lived instances never
     * pay thread create/teardown.
     */
    explicit ThreadPool(unsigned nthreads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count including the calling thread (>= 1). */
    unsigned size() const { return nThreads; }

    /**
     * Whether a parallelFor() issued from the calling thread runs its
     * whole loop inline: the pool has one worker, or the caller is
     * already inside one of this pool's tasks (the nested case
     * below). Callers size their fan-out by it. A call that loses the
     * job slot to another outside thread also runs inline, but that
     * race is not knowable in advance and is not reported here.
     */
    bool runsInline() const;

    /**
     * Run fn(i) for every i in [0, n) and block until all calls have
     * returned. The calling thread participates. Concurrent calls
     * must touch disjoint state; a call that finds another outside
     * thread's job in the slot runs inline. Allocation-free: the
     * callable is shared with the workers through a borrowed pointer
     * + trampoline, never a std::function — safe because the call
     * blocks until every worker is done with it.
     *
     * Exceptions: a throwing task does not deadlock or terminate the
     * process. The first exception (by completion order) is captured,
     * the remaining index space is abandoned, the join still waits
     * for every in-flight task, and the exception rethrows from
     * parallelFor() on the calling thread. The pool stays usable.
     * Indices already claimed when the throw lands still run, so
     * side effects of sibling tasks may or may not have happened —
     * callers treating an exception as fatal (the simulator's only
     * use) are unaffected.
     *
     * Re-entrant: a parallelFor issued from inside a task of the same
     * pool (e.g. a per-layer kernel running under a per-branch
     * fan-out) detects the nesting and runs its indices inline on the
     * calling thread. Because tasks must already be disjoint-state and
     * order-independent, collapsing an inner loop to serial cannot
     * change any result — only which level of the nest supplies the
     * parallelism.
     */
    template <class F>
    void
    parallelFor(size_t n, F &&fn)
    {
        using Fn = std::remove_reference_t<F>;
        parallelForRaw(n,
                       const_cast<void *>(static_cast<const void *>(&fn)),
                       [](void *ctx, size_t i) {
                           (*static_cast<Fn *>(ctx))(i);
                       });
    }

    /**
     * The automatic pool size: NC_THREADS when set to a positive
     * integer, otherwise std::thread::hardware_concurrency() (>= 1).
     */
    static unsigned defaultThreads();

  private:
    void parallelForRaw(size_t n, void *ctx,
                        void (*fn)(void *, size_t));
    void ensureWorkers();
    void workerLoop();
    void runShare();

    unsigned nThreads;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    /// Current job's task; non-null exactly while the slot is taken.
    void (*jobFn)(void *, size_t) = nullptr;
    void *jobCtx = nullptr;
    size_t jobN = 0;
    std::exception_ptr jobErr; ///< first failure of the current job
    std::atomic<size_t> cursor{0};
    unsigned target = 0;    ///< helper slots for the current job
    unsigned joined = 0;    ///< helpers that claimed a slot
    unsigned pending = 0;   ///< helpers still running the current job
    uint64_t generation = 0;
    bool stopping = false;
};

} // namespace nc::common

#endif // NC_COMMON_THREAD_POOL_HH
