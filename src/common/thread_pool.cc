#include "common/thread_pool.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/env.hh"
#include "common/logging.hh"

namespace nc::common
{

namespace
{

/**
 * The pool this thread is currently running a task of (null outside
 * any task). parallelForRaw() consults it to collapse nested loops on
 * the same pool to inline execution instead of corrupting the single
 * shared job slot.
 */
thread_local const ThreadPool *tl_active_pool = nullptr;

struct ActivePoolScope
{
    explicit ActivePoolScope(const ThreadPool *p)
        : prev(tl_active_pool)
    {
        tl_active_pool = p;
    }
    ~ActivePoolScope() { tl_active_pool = prev; }
    const ThreadPool *prev;
};

/**
 * Task identity for the ownership race detector: each claimed index
 * gets a fresh process-unique id for the duration of its fn(i) call.
 * Debug builds only — release builds never assign ids (currentTaskId
 * stays 0) so the hot loop carries no extra atomic traffic.
 */
thread_local uint64_t tl_task_id = 0;

#ifndef NDEBUG
std::atomic<uint64_t> g_next_task_id{0};

struct PoolTaskScope
{
    PoolTaskScope() : prev(tl_task_id)
    {
        tl_task_id = g_next_task_id.fetch_add(
                         1, std::memory_order_relaxed) +
                     1;
    }
    ~PoolTaskScope() { tl_task_id = prev; }
    uint64_t prev;
};
#endif

/**
 * Pin worker i to the (i + 1)-th CPU after the calling thread's in
 * its CPU set, when that set has a CPU for every worker and the
 * caller (see the file comment's Placement).
 */
void
pinWorkers(std::vector<std::thread> &workers)
{
#ifdef __linux__
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    if (cpus.size() <= workers.size())
        return;
    auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
    size_t k = here == cpus.end()
                   ? 0
                   : static_cast<size_t>(here - cpus.begin());
    for (size_t i = 0; i < workers.size(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[(k + 1 + i) % cpus.size()], &one);
        // A refused pin leaves that worker where the scheduler puts
        // it, as an unpinned pool would be.
        pthread_setaffinity_np(workers[i].native_handle(), sizeof one,
                               &one);
    }
#else
    (void)workers;
#endif
}

} // namespace

uint64_t
currentTaskId()
{
    return tl_task_id;
}

unsigned
ThreadPool::defaultThreads()
{
    // A misread thread count silently misconfigures every pool in
    // the process (and with it every cycle-reduction fan-out), so
    // garbage is a hard configuration error, not a warning that
    // scrolls past: the value must be a plain positive decimal
    // integer with no trailing junk, and absurd counts — far beyond
    // any machine this simulator meets — are rejected as the typos
    // they are.
    constexpr long kMaxThreads = 4096;
    if (const char *env = std::getenv("NC_THREADS")) {
        char *end = nullptr;
        errno = 0;
        long v = std::strtol(env, &end, 10);
        // strtol quietly skips leading whitespace; a padded value is
        // as suspect as trailing junk, so both are rejected.
        if (end == env || *end != '\0' ||
            std::isspace(static_cast<unsigned char>(env[0])))
            nc_fatal("NC_THREADS='%s' is not an integer", env);
        if (errno == ERANGE || v > kMaxThreads)
            nc_fatal("NC_THREADS='%s' is absurdly large (max %ld)",
                     env, kMaxThreads);
        if (v < 1)
            nc_fatal("NC_THREADS='%s' must be a positive thread "
                     "count", env);
        return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned nthreads)
    : nThreads(nthreads != 0 ? nthreads : defaultThreads())
{
    // A typo'd NC_* knob must not silently configure nothing; die
    // here (and in the Engine constructor) before any work runs.
    checkEnvOnce();
}

bool
ThreadPool::runsInline() const
{
    return nThreads == 1 || tl_active_pool == this;
}

void
ThreadPool::ensureWorkers()
{
    // Called with mtx held by the job-slot owner, so two outside
    // callers never spawn workers concurrently.
    if (!workers.empty())
        return;
    workers.reserve(nThreads - 1);
    for (unsigned i = 0; i + 1 < nThreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
    pinWorkers(workers);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::runShare()
{
    for (;;) {
        size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobN)
            break;
        try {
#ifndef NDEBUG
            PoolTaskScope task_identity;
#endif
            jobFn(jobCtx, i);
        } catch (...) {
            // First failure wins; park the cursor past the end so no
            // further indices are claimed (tasks already claimed
            // still finish — the join below waits for them).
            {
                std::lock_guard<std::mutex> lk(mtx);
                if (!jobErr)
                    jobErr = std::current_exception();
            }
            cursor.store(jobN, std::memory_order_relaxed);
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mtx);
            cvStart.wait(lk, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            // Jobs smaller than the pool only open n-1 helper slots;
            // a spuriously woken worker beyond that goes back to
            // sleep instead of contending for the cursor.
            if (joined >= target)
                continue;
            ++joined;
        }
        {
            ActivePoolScope scope(this);
            runShare();
        }
        {
            std::lock_guard<std::mutex> lk(mtx);
            if (--pending == 0)
                cvDone.notify_one();
        }
    }
}

void
ThreadPool::parallelForRaw(size_t n, void *ctx,
                           void (*fn)(void *, size_t))
{
    if (n == 0)
        return;
    // Nested loop on the pool we are already running a task of: the
    // outer level owns the workers (and the one job slot), so the
    // inner level runs inline on this thread.
    if (tl_active_pool == this) {
        for (size_t i = 0; i < n; ++i)
            fn(ctx, i);
        return;
    }
    // The caller participates, so a job needs at most n - 1 helpers.
    size_t helpers = std::min<size_t>(nThreads - 1, n - 1);
    auto run_inline = [&] {
        for (size_t i = 0; i < n; ++i)
            fn(ctx, i);
    };
    if (helpers == 0) {
        run_inline();
        return;
    }
    {
        std::unique_lock<std::mutex> lk(mtx);
        // Another outside thread owns the one job slot: run this loop
        // on the calling thread instead of overwriting its job. The
        // determinism contract makes the result identical either way.
        if (jobFn != nullptr) {
            lk.unlock();
            run_inline();
            return;
        }
        ensureWorkers();
        jobFn = fn;
        jobCtx = ctx;
        jobN = n;
        jobErr = nullptr;
        cursor.store(0, std::memory_order_relaxed);
        target = static_cast<unsigned>(helpers);
        joined = 0;
        pending = static_cast<unsigned>(helpers);
        ++generation;
    }
    // Wake every worker: the first `helpers` to see the new generation
    // claim the slots and the rest go back to sleep. notify_one per
    // slot is not enough — a helper that finishes its share before the
    // last notify re-enters its wait and can absorb that notify, so a
    // slot stays unclaimed and the join below never returns.
    cvStart.notify_all();
    {
        ActivePoolScope scope(this);
        runShare();
    }
    // The join must run even when this thread's own share failed:
    // workers still borrow jobFn/jobCtx, so unwinding past them would
    // dangle the callable. runShare() never throws (failures land in
    // jobErr), so reaching here is unconditional.
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(mtx);
        cvDone.wait(lk, [&] { return pending == 0; });
        jobFn = nullptr;
        jobCtx = nullptr;
        jobN = 0;
        err = jobErr;
        jobErr = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace nc::common
