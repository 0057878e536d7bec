/**
 * @file
 * Open-loop request generator over the in-process serving transport.
 *
 * One thread sends each request at its due time on a fixed schedule
 * (a steady rate, or bursts) whether or not earlier requests have
 * completed (independent users), while the calling thread receives. Every latency is taken from the request's
 * due time to its receipt, so a stall that delays later sends is
 * charged to those requests too; how late each send left its due
 * time is recorded separately, so a lagging generator shows instead
 * of hiding inside server-side latencies.
 */

#ifndef NC_NBENCH_OPEN_LOOP_HH
#define NC_NBENCH_OPEN_LOOP_HH

#include <cstdint>
#include <vector>

#include "dnn/tensor.hh"
#include "serve/server.hh"
#include "spans.hh"

namespace nc::nbench
{

/** One request's life as the client saw it (ms since phase start). */
struct RequestSample
{
    uint64_t id = 0;
    double dueMs = 0, sentMs = 0, receiptMs = 0;
    serve::wire::Status status = serve::wire::Status::Ok;
    bool received = false;
    bool matches = false; ///< output equals the expected tensor
    /** @name The response frame's server-side report slice */
    /// @{
    double queueMs = 0, latencyMs = 0;
    /// @}

    double latency() const { return receiptMs - dueMs; }
    double lag() const { return sentMs - dueMs; }
};

/** When each request is due (ms after the phase starts). */
struct Schedule
{
    std::vector<double> dueMs;
    /** Spacing of the schedule (bursts: their period); a send later
     * than a quarter of it is lagging. */
    double intervalMs = 0;

    /** @p rps for @p seconds: request k due at k / rps. */
    static Schedule steady(double rps, double seconds);
    /** Bursts of @p size requests due together every @p period_ms. */
    static Schedule bursts(unsigned size, double period_ms,
                           double seconds);
};

struct OpenLoopResult
{
    double intervalMs = 0;              ///< the schedule's spacing
    std::vector<RequestSample> samples; ///< in due order

    uint64_t failed() const; ///< not received, non-Ok, or mismatched
    /** Due-to-receipt latencies of the Ok, matching requests. */
    std::vector<double> latenciesMs() const;
    std::vector<double> lagsMs() const;
    /**
     * The server is still falling behind the schedule at the end: the
     * requests of the last quarter waited over 25% (and over 1 ms)
     * longer than those of the third. A queue that grew early and then
     * held steady (a shift to larger batches) does not count.
     */
    bool backlogGrowing() const;
};

/**
 * Send the requests of @p when open-loop through a fresh loopback
 * client of @p server. Request k (id first_id + k) carries
 * inputs[pick[k]] and must come back as expected[pick[k]].
 */
OpenLoopResult runOpenLoop(serve::InferenceServer &server,
                           const std::vector<dnn::QTensor> &inputs,
                           const std::vector<dnn::QTensor> &expected,
                           const std::vector<size_t> &pick,
                           const Schedule &when, uint64_t first_id,
                           Tracer &tr);

} // namespace nc::nbench

#endif // NC_NBENCH_OPEN_LOOP_HH
