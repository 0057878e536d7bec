/**
 * @file
 * Event-driven inference serving front end.
 *
 * One InferenceServer wraps one CompiledModel behind a
 * DynamicBatcher and speaks the length-prefixed wire protocol
 * (serve/wire.hh) over two transports:
 *
 *  - **Sockets** (start()): a poll(2) event loop on non-blocking
 *    TCP sockets bound to 127.0.0.1. Connections are accepted
 *    non-blocking, partial reads accumulate in a per-connection
 *    FrameReader whose ceiling is the encoded size of a request for
 *    the served model (a longer length prefix is a protocol error
 *    that drops the connection, on either transport), decoded
 *    requests go to the batcher, and
 *    completions append encoded responses to the connection's write
 *    buffer — a self-pipe wakes the poll loop, which flushes under
 *    POLLOUT. Responses for a connection that closed mid-request are
 *    dropped and counted (droppedResponses), never delivered to a
 *    stale fd.
 *
 *  - **Loopback** (loopback()): an in-process client handle whose
 *    bytes run through the identical Session framing/decode path and
 *    the same batcher — no sockets, no poll loop — so deterministic
 *    tests (and the perf_report serve section) prove the whole wire
 *    format and serving semantics without touching the network.
 *
 * shutdown() is graceful: stop accepting, drain the batcher (every
 * admitted request completes; late submits get a typed ShuttingDown
 * response), flush pending connection writes, then join the loop.
 */

#ifndef NC_SERVE_SERVER_HH
#define NC_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/batcher.hh"
#include "serve/wire.hh"

namespace nc::serve
{

/** Everything an InferenceServer is configured with. */
struct ServerOptions
{
    BatcherOptions batcher;
    /** Socket mode: TCP port on 127.0.0.1 (0 = ephemeral). */
    unsigned port = 0;
    /** Concurrent connections; later accepts are closed at once. */
    unsigned maxConnections = 64;
};

/** Aggregate transport counters (atomically maintained). */
struct ServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsRefused = 0; ///< over maxConnections
    uint64_t framesIn = 0;           ///< well-formed requests decoded
    uint64_t protocolErrors = 0;     ///< bad frames / poisoned streams
    uint64_t droppedResponses = 0;   ///< client dropped mid-request
};

namespace detail
{
class Session;
struct LoopbackState;
} // namespace detail

/** Serves one compiled model over sockets and/or loopback. */
class InferenceServer
{
  public:
    /** @p model must outlive the server. Serving needs a functional
     * backend (the batcher enforces it — analytic models have no
     * output tensors to return). */
    InferenceServer(core::CompiledModel &model,
                    ServerOptions opts = {});
    ~InferenceServer(); ///< shutdown()

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * In-process client over the shared framing path. Handles are
     * cheap; each owns its own response stream. send() is
     * non-blocking (completions arrive on the batcher thread);
     * receive() blocks for the next response in completion order.
     */
    class LoopbackClient
    {
      public:
        /** Encode and submit one request. */
        void send(const wire::RequestFrame &req);
        /** Feed raw frame bytes (malformed-stream tests). */
        void sendBytes(std::span<const uint8_t> bytes);
        /**
         * Next decoded response, blocking up to @p timeoutMs.
         * nullopt on timeout, when the response stream itself is
         * corrupt (never expected from an in-process server), or at
         * once when this client's request stream poisoned and the
         * session was dropped — after any responses already queued.
         * Responses completing after the drop are counted in
         * ServerStats::droppedResponses.
         */
        std::optional<wire::ResponseFrame>
        receive(unsigned timeoutMs = 30000);

      private:
        friend class InferenceServer;
        std::shared_ptr<detail::LoopbackState> state;
        std::shared_ptr<detail::Session> session;
    };

    /** New loopback client; usable with or without start(). */
    LoopbackClient loopback();

    /**
     * Bind 127.0.0.1:options().port, listen, and spawn the poll
     * loop. Returns false with @p error filled when the socket
     * layer refuses (no permission, port taken) — callers choose
     * between dying loudly and falling back to loopback.
     */
    bool start(std::string *error = nullptr);
    /** The bound TCP port (valid after a successful start()). */
    uint16_t port() const { return boundPort; }

    /** Graceful stop: no new work, drain, flush, join. Idempotent. */
    void shutdown();

    DynamicBatcher &batcher() { return batch; }
    const DynamicBatcher &batcher() const { return batch; }
    const ServerOptions &options() const { return opts; }
    ServerStats serverStats() const;

  private:
    friend class detail::Session;
    struct Connection;
    struct SocketState;

    void pollLoop();
    void wake();
    void acceptNew();
    void readConn(const std::shared_ptr<Connection> &conn);
    bool flushConn(const std::shared_ptr<Connection> &conn);
    void closeConn(const std::shared_ptr<Connection> &conn);
    /** Route one decoded request (or a decode failure) from a
     * session into the batcher / straight back out. */
    void dispatch(detail::Session &session,
                  std::vector<uint8_t> payload);

    ServerOptions opts;
    DynamicBatcher batch;
    /**
     * Every session's frame ceiling: the encoded size of a request
     * for the served model, so no connection can make the server
     * buffer more than one request's bytes (plus one read) — a
     * longer length prefix drops the connection.
     */
    uint32_t maxRequestBytes;
    uint16_t boundPort = 0;
    std::unique_ptr<SocketState> sock; ///< null until start()

    struct StatCells;
    std::unique_ptr<StatCells> stat;
};

} // namespace nc::serve

#endif // NC_SERVE_SERVER_HH
