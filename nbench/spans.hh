/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * A Span brackets one call the benchmark makes into a module's public
 * function; its category is the module (sram, bitserial, cache,
 * mapping, core, serve, common). Spans nest per thread: a span opened
 * while another is open on the same thread records it as its parent,
 * and spans of one served request carry that request's id. Nothing
 * is written until the run ends, when writeChromeTrace() emits the
 * Chrome trace-event JSON (complete "X" events), so spans recorded
 * inside the library later can join the same timeline.
 *
 * A disabled Tracer records nothing; a Span on it costs one branch.
 */

#ifndef NC_NBENCH_SPANS_HH
#define NC_NBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nc::nbench
{

struct SpanRecord
{
    const char *cat = "";  ///< module
    const char *name = ""; ///< public function called
    int64_t startNs = 0;   ///< steady-clock ns since the tracer epoch
    int64_t endNs = 0;
    int64_t parent = -1;   ///< index of the enclosing span, or -1
    uint64_t requestId = 0; ///< served request id (0 = none)
    unsigned tid = 0;      ///< small per-thread index
};

/** Self and total time of every span of one (cat, name). */
struct SpanTotals
{
    uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
};

/**
 * Per span: its duration minus the part of its interval its child
 * spans cover (overlapping children counted once).
 */
std::vector<double> selfTimesNs(const std::vector<SpanRecord> &spans);

/** selfTimesNs() and durations summed by "cat.name". */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans);

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool on_) : on(on_), epoch(Clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return on; }

    int64_t nowNs() const { return toNs(Clock::now()); }
    int64_t toNs(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch)
            .count();
    }

    /** Open a span on this thread (returns -1 when disabled). */
    int64_t open(const char *cat, const char *name,
                 uint64_t request_id = 0);
    /** Close span @p idx, restoring its parent as the open span. */
    void close(int64_t idx);
    /** Tag an open span with a request id learned after opening it. */
    void setRequest(int64_t idx, uint64_t request_id);
    /** Record a span whose interval was measured elsewhere. */
    void record(const char *cat, const char *name, int64_t start_ns,
                int64_t end_ns, uint64_t request_id = 0);

    /** Snapshot (call once every recording thread has joined). */
    std::vector<SpanRecord> spans() const;

    /**
     * Write the spans as Chrome trace-event JSON to @p path; @p meta
     * lands in "otherData". Returns false when the file cannot be
     * written.
     */
    bool writeChromeTrace(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &meta)
        const;

  private:
    unsigned threadIndex();

    bool on;
    Clock::time_point epoch;
    mutable std::mutex mtx;
    std::vector<SpanRecord> recs; ///< guarded by mtx
    std::map<std::thread::id, unsigned> tids; ///< guarded by mtx
};

/** RAII span around one call. */
class Span
{
  public:
    Span(Tracer &tr_, const char *cat, const char *name,
         uint64_t request_id = 0)
        : tr(tr_),
          idx(tr_.enabled() ? tr_.open(cat, name, request_id) : -1)
    {
    }
    ~Span()
    {
        if (idx >= 0)
            tr.close(idx);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setRequest(uint64_t request_id)
    {
        if (idx >= 0)
            tr.setRequest(idx, request_id);
    }

  private:
    Tracer &tr;
    int64_t idx;
};

} // namespace nc::nbench

#endif // NC_NBENCH_SPANS_HH
