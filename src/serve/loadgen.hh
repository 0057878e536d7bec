/**
 * @file
 * Load generation against an InferenceServer, shared by the
 * bench/serve_loadgen binary, perf_report's schema-5 "serve"
 * section, and the serving tests — one implementation, so the JSON
 * numbers and the parity proofs measure the identical traffic.
 *
 * Two drive modes:
 *  - **closed loop** (openLoopRps == 0): `clients` concurrent
 *    channels, each keeping exactly one request outstanding —
 *    latency samples are client wall time (send to receive).
 *  - **open loop** (openLoopRps > 0): arrivals are scheduled at the
 *    fixed aggregate rate independent of completions, fanned over
 *    the channels; latency samples are the server-side latencyMs
 *    each response carries (admission to completion), since the
 *    channel drains responses asynchronously.
 *
 * Inputs are deterministic from the seed (request i's image depends
 * only on seed and i), and verification computes every expected
 * output up front via direct CompiledModel::runBatch on the idle
 * model, then compares each served tensor bit for bit.
 */

#ifndef NC_SERVE_LOADGEN_HH
#define NC_SERVE_LOADGEN_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/server.hh"

namespace nc::serve
{

/** Blocking wire-protocol client over TCP to 127.0.0.1:port. */
class SocketClient
{
  public:
    /** Connect, or return nullopt with @p error filled. */
    static std::optional<SocketClient>
    connectTo(uint16_t port, std::string *error = nullptr);
    ~SocketClient();
    SocketClient(SocketClient &&other) noexcept;
    SocketClient &operator=(SocketClient &&) = delete;
    SocketClient(const SocketClient &) = delete;

    /** Encode and write one request (blocking until accepted). */
    void send(const wire::RequestFrame &req);
    /** Write raw frame bytes (malformed-stream tests). */
    void sendBytes(std::span<const uint8_t> bytes);
    /** Next response frame; nullopt on timeout or a dead/corrupt
     * stream (streamError() explains which). */
    std::optional<wire::ResponseFrame>
    receive(unsigned timeoutMs = 30000);
    const std::string &streamError() const { return err; }

  private:
    explicit SocketClient(int fd_) : fd(fd_) {}
    int fd = -1;
    wire::FrameReader reader;
    std::string err;
};

/** What one load-generation run is configured with. */
struct LoadGenOptions
{
    unsigned requests = 64;
    unsigned clients = 4;
    /** Aggregate open-loop arrival rate (requests/s); 0 = closed. */
    double openLoopRps = 0;
    unsigned priority = 0; ///< applied to every request
    uint64_t seed = 1;     ///< input generation (deterministic)
    bool verify = true;    ///< compare against direct runBatch
    bool overSocket = false; ///< TCP channels instead of loopback
};

/** Aggregate outcome of one run. */
struct LoadStats
{
    uint64_t completed = 0;  ///< Ok responses
    uint64_t rejected = 0;   ///< typed backpressure refusals
    uint64_t errors = 0;     ///< other non-Ok / timeouts
    uint64_t mismatched = 0; ///< served != direct runBatch (verify)
    double p50Ms = 0;
    double p99Ms = 0;
    double imagesPerSec = 0;
    double wallMs = 0;
    double meanOccupancy = 0; ///< images per pass over the run
    /** The batcher's per-pass occupancy histogram after the run. */
    std::vector<uint64_t> occupancyHist;
};

/**
 * Drive @p server (which wraps @p model) with the configured
 * traffic and collect the stats. Socket mode requires a started
 * server; the model must be idle (verification runs direct
 * runBatch before traffic starts).
 */
LoadStats runLoadGen(core::CompiledModel &model,
                     InferenceServer &server,
                     const LoadGenOptions &opts);

} // namespace nc::serve

#endif // NC_SERVE_LOADGEN_HH
