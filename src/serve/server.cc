#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <thread>

#include "common/logging.hh"

namespace nc::serve
{

namespace detail
{

/**
 * One request stream: the framing/decode path shared by the socket
 * and loopback transports. Incoming bytes are fed from exactly one
 * thread per session; deliveries (encoded responses) may arrive from
 * the batcher thread concurrently, so the deliver callback is the
 * thread-safety boundary.
 */
class Session : public std::enable_shared_from_this<Session>
{
  public:
    using Deliver = std::function<void(std::vector<uint8_t>)>;

    Session(InferenceServer &srv_, Deliver deliver_)
        : srv(srv_), deliver(std::move(deliver_)),
          reader(srv_.maxRequestBytes)
    {
    }

    /** Frames and dispatches @p bytes; a poisoned stream (counted
     * once as a protocol error) ignores everything after. */
    void onBytes(std::span<const uint8_t> bytes);

    bool poisoned() const { return !reader.error().empty(); }
    const std::string &streamError() const { return reader.error(); }

    void
    deliverResponse(const wire::ResponseFrame &rsp)
    {
        std::vector<uint8_t> bytes;
        wire::encodeResponse(rsp, bytes);
        deliver(std::move(bytes));
    }

  private:
    InferenceServer &srv;
    Deliver deliver;
    wire::FrameReader reader;
};

/**
 * The loopback client's response side: bytes back to frames. The
 * client may send and receive on two threads, so everything here,
 * the closed flag included, lives under mtx.
 */
struct LoopbackState
{
    std::mutex mtx;
    std::condition_variable cv;
    wire::FrameReader reader;
    std::deque<wire::ResponseFrame> ready;
    std::string error;
    /** The session's request stream poisoned: it was dropped, like a
     * socket connection the server closed. */
    bool closed = false;

    /** Queue one response; false (nothing queued) once closed. */
    bool
    onResponseBytes(std::vector<uint8_t> bytes)
    {
        std::lock_guard lk(mtx);
        if (closed)
            return false;
        reader.feed(bytes);
        while (auto payload = reader.next()) {
            wire::ResponseFrame rsp;
            std::string err;
            if (wire::decodeResponse(*payload, rsp, err))
                ready.push_back(std::move(rsp));
            else if (error.empty())
                error = err;
        }
        if (error.empty() && !reader.error().empty())
            error = reader.error();
        cv.notify_all();
        return true;
    }

    /** Drop the session: wake any receive() waiting on it. */
    void
    close()
    {
        std::lock_guard lk(mtx);
        closed = true;
        cv.notify_all();
    }
};

} // namespace detail

struct InferenceServer::StatCells
{
    std::atomic<uint64_t> connectionsAccepted{0};
    std::atomic<uint64_t> connectionsRefused{0};
    std::atomic<uint64_t> framesIn{0};
    std::atomic<uint64_t> protocolErrors{0};
    std::atomic<uint64_t> droppedResponses{0};
};

void
detail::Session::onBytes(std::span<const uint8_t> bytes)
{
    if (poisoned())
        return;
    reader.feed(bytes);
    while (auto payload = reader.next())
        srv.dispatch(*this, std::move(*payload));
    if (poisoned())
        ++srv.stat->protocolErrors;
}

/** One accepted TCP connection. The poll loop owns fd and reads;
 * deliveries append to the write buffer under mtx. */
struct InferenceServer::Connection
{
    int fd = -1;
    std::shared_ptr<detail::Session> session;
    std::mutex mtx;
    std::vector<uint8_t> out;
    size_t outPos = 0;
    bool closed = false;

    bool
    hasPending()
    {
        std::lock_guard lk(mtx);
        return outPos < out.size();
    }
};

struct InferenceServer::SocketState
{
    int listenFd = -1;
    int wakeR = -1, wakeW = -1;
    std::thread loop;
    std::vector<std::shared_ptr<Connection>> conns; ///< loop thread only
    std::atomic<bool> stopAccepting{false};
    std::atomic<bool> exitWhenIdle{false};
    /** Flush budget once exitWhenIdle: steady_clock ms timestamp. */
    std::atomic<int64_t> flushDeadlineMs{0};
};

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

namespace
{

/** Payload bytes of a request carrying @p model's input tensor. */
uint32_t
requestBytesFor(const core::CompiledModel &model)
{
    wire::RequestFrame probe;
    probe.input = dnn::QTensor(model.inputChannels(), model.inputHeight(),
                               model.inputWidth());
    std::vector<uint8_t> bytes;
    wire::encodeRequest(probe, bytes);
    return static_cast<uint32_t>(bytes.size() - 4); // minus the prefix
}

} // namespace

InferenceServer::InferenceServer(core::CompiledModel &model,
                                 ServerOptions opts_)
    : opts(opts_), batch(model, opts_.batcher),
      maxRequestBytes(requestBytesFor(model)),
      stat(std::make_unique<StatCells>())
{
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

void
InferenceServer::dispatch(detail::Session &session,
                          std::vector<uint8_t> payload)
{
    wire::RequestFrame req;
    std::string err;
    if (!wire::decodeRequest(payload, req, err)) {
        ++stat->protocolErrors;
        wire::ResponseFrame rsp;
        rsp.id = 0; // the id could not be trusted
        rsp.status = wire::Status::BadRequest;
        rsp.message = err;
        session.deliverResponse(rsp);
        return;
    }
    ++stat->framesIn;
    auto sp = session.shared_from_this();
    uint64_t id = req.id;
    batch.submit(std::move(req.input), req.priority,
                 [sp, id](DynamicBatcher::Result r) {
                     wire::ResponseFrame rsp;
                     rsp.id = id;
                     rsp.status = r.status;
                     rsp.queueMs = r.queueMs;
                     rsp.latencyMs = r.latencyMs;
                     rsp.passIndex = r.passIndex;
                     rsp.batchSize = r.batchSize;
                     rsp.message = std::move(r.message);
                     rsp.output = std::move(r.output);
                     sp->deliverResponse(rsp);
                 });
}

// ---------------------------------------------------------------------
// Loopback transport
// ---------------------------------------------------------------------

InferenceServer::LoopbackClient
InferenceServer::loopback()
{
    LoopbackClient client;
    client.state = std::make_shared<detail::LoopbackState>();
    auto state = client.state;
    client.session = std::make_shared<detail::Session>(
        *this, [this, state](std::vector<uint8_t> bytes) {
            if (!state->onResponseBytes(std::move(bytes)))
                ++stat->droppedResponses;
        });
    return client;
}

void
InferenceServer::LoopbackClient::send(const wire::RequestFrame &req)
{
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    sendBytes(bytes);
}

void
InferenceServer::LoopbackClient::sendBytes(
    std::span<const uint8_t> bytes)
{
    session->onBytes(bytes);
    // A poisoned stream drops the session, as readConn drops a
    // socket connection: later responses are counted, not queued.
    if (session->poisoned())
        state->close();
}

std::optional<wire::ResponseFrame>
InferenceServer::LoopbackClient::receive(unsigned timeoutMs)
{
    std::unique_lock lk(state->mtx);
    bool got = state->cv.wait_for(
        lk, std::chrono::milliseconds(timeoutMs), [&] {
            return !state->ready.empty() || !state->error.empty() ||
                   state->closed;
        });
    if (!got || state->ready.empty())
        return std::nullopt;
    wire::ResponseFrame rsp = std::move(state->ready.front());
    state->ready.pop_front();
    return rsp;
}

// ---------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------

bool
InferenceServer::start(std::string *error)
{
    auto fail = [&](const char *what) {
        if (error)
            *error = std::string(what) + ": " + std::strerror(errno);
        if (sock) {
            if (sock->listenFd >= 0)
                ::close(sock->listenFd);
            if (sock->wakeR >= 0)
                ::close(sock->wakeR);
            if (sock->wakeW >= 0)
                ::close(sock->wakeW);
            sock.reset();
        }
        return false;
    };

    nc_assert(!sock, "InferenceServer::start called twice");
    sock = std::make_unique<SocketState>();

    sock->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (sock->listenFd < 0)
        return fail("socket");
    setNonBlocking(sock->listenFd);
    int one = 1;
    (void)::setsockopt(sock->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(sock->listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0)
        return fail("bind");
    if (::listen(sock->listenFd, 64) < 0)
        return fail("listen");

    socklen_t len = sizeof addr;
    if (::getsockname(sock->listenFd,
                      reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        return fail("getsockname");
    boundPort = ntohs(addr.sin_port);

    int pfd[2];
    if (::pipe(pfd) < 0)
        return fail("pipe");
    sock->wakeR = pfd[0];
    sock->wakeW = pfd[1];
    setNonBlocking(sock->wakeR);
    setNonBlocking(sock->wakeW);

    sock->loop = std::thread([this] { pollLoop(); });
    return true;
}

void
InferenceServer::wake()
{
    if (!sock || sock->wakeW < 0)
        return;
    uint8_t b = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(sock->wakeW, &b, 1);
}

void
InferenceServer::acceptNew()
{
    for (;;) {
        int fd = ::accept(sock->listenFd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient: poll again
        if (sock->stopAccepting.load() ||
            sock->conns.size() >= opts.maxConnections) {
            ++stat->connectionsRefused;
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::weak_ptr<Connection> wconn = conn;
        conn->session = std::make_shared<detail::Session>(
            *this, [this, wconn](std::vector<uint8_t> bytes) {
                auto c = wconn.lock();
                if (!c) {
                    ++stat->droppedResponses;
                    return;
                }
                {
                    std::lock_guard lk(c->mtx);
                    if (c->closed) {
                        ++stat->droppedResponses;
                        return;
                    }
                    c->out.insert(c->out.end(), bytes.begin(),
                                  bytes.end());
                }
                wake();
            });
        sock->conns.push_back(std::move(conn));
        ++stat->connectionsAccepted;
    }
}

void
InferenceServer::readConn(const std::shared_ptr<Connection> &conn)
{
    uint8_t buf[65536];
    for (;;) {
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn->session->onBytes({buf, static_cast<size_t>(n)});
            if (conn->session->poisoned()) {
                nc_warn("serve: dropping connection: %s",
                        conn->session->streamError().c_str());
                closeConn(conn);
                return;
            }
            continue;
        }
        if (n == 0) { // peer closed; responses in flight will drop
            closeConn(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == EINTR)
            return;
        closeConn(conn); // hard error
        return;
    }
}

/** Returns false once the connection is gone. */
bool
InferenceServer::flushConn(const std::shared_ptr<Connection> &conn)
{
    std::unique_lock lk(conn->mtx);
    while (conn->outPos < conn->out.size()) {
        ssize_t n = ::send(conn->fd, conn->out.data() + conn->outPos,
                           conn->out.size() - conn->outPos,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn->outPos += static_cast<size_t>(n);
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return true; // poll for POLLOUT
        lk.unlock();
        closeConn(conn);
        return false;
    }
    conn->out.clear();
    conn->outPos = 0;
    return true;
}

void
InferenceServer::closeConn(const std::shared_ptr<Connection> &conn)
{
    std::lock_guard lk(conn->mtx);
    if (conn->closed)
        return;
    conn->closed = true;
    ::close(conn->fd);
    conn->fd = -1;
}

void
InferenceServer::pollLoop()
{
    auto &st = *sock;
    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({st.wakeR, POLLIN, 0});
        bool accepting = !st.stopAccepting.load();
        if (accepting)
            fds.push_back({st.listenFd, POLLIN, 0});
        size_t firstConn = fds.size();
        size_t nConns = st.conns.size(); // acceptNew grows the list;
                                         // only these have pollfds
        bool anyPending = false;
        for (auto &conn : st.conns) {
            short events = POLLIN;
            if (conn->hasPending()) {
                events |= POLLOUT;
                anyPending = true;
            }
            fds.push_back({conn->fd, events, 0});
        }

        if (st.exitWhenIdle.load()) {
            if (!anyPending)
                break;
            if (nowMs() > st.flushDeadlineMs.load()) {
                nc_warn("serve: shutdown flush budget exhausted with "
                        "%zu connections still writing",
                        st.conns.size());
                break;
            }
        }

        int timeout = st.exitWhenIdle.load() ? 50 : -1;
        if (::poll(fds.data(), fds.size(), timeout) < 0) {
            if (errno == EINTR)
                continue;
            nc_warn("serve: poll failed: %s", std::strerror(errno));
            break;
        }

        if (fds[0].revents & POLLIN) { // drain the wake pipe
            uint8_t junk[256];
            while (::read(st.wakeR, junk, sizeof junk) > 0) {
            }
        }
        if (accepting && (fds[firstConn - 1].revents & POLLIN))
            acceptNew();

        for (size_t i = 0; i < nConns; ++i) {
            auto conn = st.conns[i];
            short rev = fds[firstConn + i].revents;
            if (rev & (POLLERR | POLLNVAL)) {
                closeConn(conn);
                continue;
            }
            if (rev & POLLOUT)
                if (!flushConn(conn))
                    continue;
            if (rev & (POLLIN | POLLHUP))
                readConn(conn);
        }
        std::erase_if(st.conns, [](const auto &c) {
            std::lock_guard lk(c->mtx);
            return c->closed;
        });
    }
    for (auto &conn : st.conns)
        closeConn(conn);
    st.conns.clear();
}

void
InferenceServer::shutdown()
{
    if (sock && sock->loop.joinable()) {
        sock->stopAccepting.store(true);
        wake();
    }
    // Every admitted request completes (appending responses that the
    // still-running poll loop keeps flushing); late submits get the
    // typed ShuttingDown refusal.
    batch.drain();
    if (sock && sock->loop.joinable()) {
        sock->flushDeadlineMs.store(nowMs() + 5000);
        sock->exitWhenIdle.store(true);
        wake();
        sock->loop.join();
        ::close(sock->listenFd);
        ::close(sock->wakeR);
        ::close(sock->wakeW);
        sock->listenFd = sock->wakeR = sock->wakeW = -1;
    }
}

ServerStats
InferenceServer::serverStats() const
{
    ServerStats s;
    s.connectionsAccepted = stat->connectionsAccepted.load();
    s.connectionsRefused = stat->connectionsRefused.load();
    s.framesIn = stat->framesIn.load();
    s.protocolErrors = stat->protocolErrors.load();
    s.droppedResponses = stat->droppedResponses.load();
    return s;
}

} // namespace nc::serve
