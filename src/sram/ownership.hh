/**
 * @file
 * Runtime array-ownership race detector (debug builds only).
 *
 * The thread-pool determinism contract says concurrent tasks must
 * touch disjoint sram::Array state. The parity tests check that
 * empirically (bit-identical outputs across thread counts); this
 * detector checks it directly: every kernel task claims the
 * flat-array ranges it is about to touch, a Registry
 * keeps one owner word per array of the compute cache, and any
 * read-modify access to an array owned by a different task — or to an
 * unclaimed array while the task holds claims — aborts immediately
 * with a diagnostic naming both tasks' claim labels and the array
 * index. Races that parity tests could only witness probabilistically
 * become deterministic, localized failures.
 *
 * Task identity is common::currentTaskId() (a fresh id per pool task)
 * for pool tasks, and a lazily assigned per-thread id otherwise, so
 * plain std::thread concurrency is policed too. Claims live at the
 * LEAF kernels (conv filter store and conv window tasks, the max and
 * average pools, the eltwise merge) — the innermost level that
 * actually touches array state. Coarser levels (branch or image
 * fan-outs) must NOT claim: when such an outer loop collapses to
 * inline execution, the kernels below it still dispatch real pool
 * tasks, and an outer claim held by the caller would falsely
 * conflict with those tasks' own claims. Plan-level disjointness of
 * branches and image replicas is proven statically by
 * mapping::auditPlan instead. Claims are scoped (ClaimScope) and
 * reentrant: a nested parallelFor runs inline under the outer task's
 * id, so re-claiming an already-owned array just bumps a depth count.
 * Sibling tasks claiming overlapping ranges abort at claim time —
 * before any data is corrupted.
 *
 * The whole mechanism is compiled out under NDEBUG (kEnabled == false,
 * ComputeCache creates no Registry, Array::setOwnership() leaves the
 * hook pointer null, ClaimScope collapses to an empty literal type),
 * so release kernels carry zero overhead — bench/perf_report pins
 * that. Debug, asan, and tsan presets all run with it armed.
 */

#ifndef NC_SRAM_OWNERSHIP_HH
#define NC_SRAM_OWNERSHIP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nc::sram::ownership
{

/** Whether the detector is compiled in (any non-NDEBUG build). */
#ifdef NDEBUG
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/** One claimed flat-array range: [base, base + arrays). */
struct Range
{
    uint64_t base = 0;
    uint64_t arrays = 0;
};

/**
 * Owner table of one compute cache: one word per flat array index.
 * claim()/release() serialize on a mutex (claims are per-kernel, not
 * per-access); the access check is a single relaxed-ish atomic load.
 */
class Registry
{
  public:
    explicit Registry(uint64_t narrays);
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    uint64_t arrays() const { return n; }

    /**
     * Claim [base, base + count) for the calling task. Aborts if any
     * array in the range is owned by a different task (two sibling
     * tasks claiming overlapping ranges IS the race — caught here,
     * before either touches data). Reentrant for the same task.
     */
    void claim(uint64_t base, uint64_t count, const char *label);

    /** Undo one matching claim() (depth-counted). */
    void release(uint64_t base, uint64_t count);

    /**
     * The hot check, called from Array's access funnel. Passes when
     * the array is owned by the calling task, or when it is unowned
     * and the calling task holds no claims at all (serial phases —
     * pinning, readbacks, host-side merges — run unclaimed). Anything
     * else aborts with both tasks' labels.
     */
    void checkAccess(uint64_t index) const;

  private:
    [[noreturn]] void accessViolation(uint64_t index, uint64_t owner,
                                      uint64_t current) const;

    struct Slot
    {
        std::atomic<uint64_t> owner{0};
        uint32_t depth = 0; ///< reentrant claims (guarded by mtx)
    };

    uint64_t n;
    std::unique_ptr<Slot[]> slots;
    mutable std::mutex mtx;
    std::vector<std::string> labels; ///< owner's claim label per array
};

#ifndef NDEBUG

/**
 * RAII claim of one or more ranges (all offset by @p offset — the
 * batch image-slot displacement). Null registry or an empty range set
 * is a no-op. Non-copyable; intended as a stack local at the top of a
 * task lambda.
 */
class ClaimScope
{
  public:
    ClaimScope(Registry *reg_, Range r, uint64_t offset,
               const char *label);
    ClaimScope(Registry *reg_, const std::vector<Range> &ranges_,
               uint64_t offset, const char *label);
    ~ClaimScope();

    ClaimScope(const ClaimScope &) = delete;
    ClaimScope &operator=(const ClaimScope &) = delete;

  private:
    void enter(const char *label);

    Registry *reg = nullptr;
    Range single;                ///< used when ranges is empty
    std::vector<Range> ranges;   ///< multi-range claims (branches)
    uint64_t off = 0;
    bool active = false;
};

#else // NDEBUG: zero-size, zero-cost stand-in.

class ClaimScope
{
  public:
    constexpr ClaimScope(Registry *, Range, uint64_t, const char *) {}
    constexpr ClaimScope(Registry *, const std::vector<Range> &,
                         uint64_t, const char *)
    {
    }
};

#endif

} // namespace nc::sram::ownership

#endif // NC_SRAM_OWNERSHIP_HH
