#include "serve/loadgen.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dnn/random.hh"

namespace nc::serve
{

// ---------------------------------------------------------------------
// SocketClient
// ---------------------------------------------------------------------

std::optional<SocketClient>
SocketClient::connectTo(uint16_t port, std::string *error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return std::nullopt;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        if (error)
            *error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return std::nullopt;
    }
    return SocketClient(fd);
}

SocketClient::~SocketClient()
{
    if (fd >= 0)
        ::close(fd);
}

SocketClient::SocketClient(SocketClient &&other) noexcept
    : fd(other.fd), reader(std::move(other.reader)),
      err(std::move(other.err))
{
    other.fd = -1;
}

void
SocketClient::send(const wire::RequestFrame &req)
{
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    sendBytes(bytes);
}

void
SocketClient::sendBytes(std::span<const uint8_t> bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        err = std::string("send: ") + std::strerror(errno);
        return;
    }
}

std::optional<wire::ResponseFrame>
SocketClient::receive(unsigned timeoutMs)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        if (auto payload = reader.next()) {
            wire::ResponseFrame rsp;
            std::string derr;
            if (!wire::decodeResponse(*payload, rsp, derr)) {
                err = derr;
                return std::nullopt;
            }
            return rsp;
        }
        if (!reader.error().empty()) {
            err = reader.error();
            return std::nullopt;
        }
        auto left = std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0) {
            err = "receive timeout";
            return std::nullopt;
        }
        pollfd pfd{fd, POLLIN, 0};
        int pr = ::poll(&pfd, 1, static_cast<int>(left));
        if (pr < 0 && errno != EINTR) {
            err = std::string("poll: ") + std::strerror(errno);
            return std::nullopt;
        }
        if (pr <= 0)
            continue;
        uint8_t buf[65536];
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            reader.feed({buf, static_cast<size_t>(n)});
            continue;
        }
        if (n == 0) {
            err = "connection closed by server";
            return std::nullopt;
        }
        if (errno != EINTR && errno != EAGAIN) {
            err = std::string("recv: ") + std::strerror(errno);
            return std::nullopt;
        }
    }
}

// ---------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Request i's input, a pure function of (seed, i, model shape). */
dnn::QTensor
requestInput(const core::CompiledModel &model, uint64_t seed,
             uint64_t i)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + i + 1);
    return dnn::randomQTensor(rng, model.inputChannels(),
                              model.inputHeight(),
                              model.inputWidth());
}

/** One channel's outcome, merged after the join. */
struct ChannelResult
{
    std::vector<double> latenciesMs;
    uint64_t completed = 0, rejected = 0, errors = 0,
             mismatched = 0;
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

LoadStats
runLoadGen(core::CompiledModel &model, InferenceServer &server,
           const LoadGenOptions &opts)
{
    nc_assert(opts.requests > 0 && opts.clients > 0,
              "loadgen needs requests >= 1 and clients >= 1");
    nc_assert(opts.priority <= wire::kMaxPriority,
              "loadgen priority %u out of band", opts.priority);
    if (opts.overSocket)
        nc_assert(server.port() != 0,
                  "socket-mode loadgen needs a started server");

    // Deterministic inputs; expected outputs computed up front on
    // the idle model (the batcher's runner only touches the model
    // once traffic starts).
    std::vector<dnn::QTensor> inputs;
    inputs.reserve(opts.requests);
    for (uint64_t i = 0; i < opts.requests; ++i)
        inputs.push_back(requestInput(model, opts.seed, i));
    std::vector<dnn::QTensor> expected;
    if (opts.verify) {
        auto direct = model.runBatch(inputs);
        expected = std::move(direct.outputs);
    }

    unsigned clients =
        std::min(opts.clients, std::max(1u, opts.requests));
    std::vector<ChannelResult> results(clients);
    auto t0 = Clock::now();

    auto worker = [&](unsigned c) {
        ChannelResult &res = results[c];
        // Per-channel transport.
        std::optional<SocketClient> sockCh;
        std::optional<InferenceServer::LoopbackClient> loopCh;
        if (opts.overSocket) {
            std::string cerr;
            auto connected = SocketClient::connectTo(
                static_cast<uint16_t>(server.port()), &cerr);
            if (!connected) {
                nc_warn("loadgen client %u: %s", c, cerr.c_str());
                res.errors += (opts.requests - c - 1) / clients + 1;
                return;
            }
            sockCh.emplace(std::move(*connected));
        } else {
            loopCh = server.loopback();
        }
        auto sendOne = [&](uint64_t i) {
            wire::RequestFrame req;
            req.id = i + 1; // ids are 1-based; 0 marks "unparsed"
            req.priority = static_cast<uint8_t>(opts.priority);
            req.input = inputs[i];
            if (sockCh)
                sockCh->send(req);
            else
                loopCh->send(req);
        };
        auto receiveOne = [&] {
            return sockCh ? sockCh->receive() : loopCh->receive();
        };
        auto account = [&](const wire::ResponseFrame &rsp,
                           double clientMs) {
            switch (rsp.status) {
            case wire::Status::Ok:
                ++res.completed;
                // Closed loop: client wall time. Open loop: the
                // server-side latency the response carries (the
                // channel drains responses after the send phase).
                res.latenciesMs.push_back(
                    opts.openLoopRps > 0 ? rsp.latencyMs : clientMs);
                if (opts.verify) {
                    uint64_t i = rsp.id - 1;
                    if (rsp.output.data() != expected[i].data() ||
                        rsp.output.channels() !=
                            expected[i].channels())
                        ++res.mismatched;
                }
                break;
            case wire::Status::Rejected:
                ++res.rejected;
                break;
            default:
                ++res.errors;
                break;
            }
        };

        if (opts.openLoopRps > 0) {
            // Open loop: send request i at t0 + i/rate regardless of
            // completions, then drain this channel's responses.
            auto interval = std::chrono::duration<double>(
                1.0 / opts.openLoopRps);
            unsigned sent = 0;
            for (uint64_t i = c; i < opts.requests; i += clients) {
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             interval * static_cast<double>(i)));
                sendOne(i);
                ++sent;
            }
            for (unsigned k = 0; k < sent; ++k) {
                auto rsp = receiveOne();
                if (!rsp) {
                    ++res.errors;
                    continue;
                }
                account(*rsp, 0);
            }
        } else {
            // Closed loop: one outstanding request per channel.
            for (uint64_t i = c; i < opts.requests; i += clients) {
                auto s0 = Clock::now();
                sendOne(i);
                auto rsp = receiveOne();
                if (!rsp) {
                    ++res.errors;
                    continue;
                }
                account(*rsp, msSince(s0, Clock::now()));
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(worker, c);
    for (auto &t : threads)
        t.join();
    double wallMs = msSince(t0, Clock::now());

    LoadStats stats;
    std::vector<double> all;
    for (auto &res : results) {
        stats.completed += res.completed;
        stats.rejected += res.rejected;
        stats.errors += res.errors;
        stats.mismatched += res.mismatched;
        all.insert(all.end(), res.latenciesMs.begin(),
                   res.latenciesMs.end());
    }
    std::sort(all.begin(), all.end());
    stats.p50Ms = percentile(all, 0.5);
    stats.p99Ms = percentile(all, 0.99);
    stats.wallMs = wallMs;
    stats.imagesPerSec =
        wallMs > 0 ? static_cast<double>(stats.completed) /
                         (wallMs / 1e3)
                   : 0;
    auto bstats = server.batcher().stats();
    stats.meanOccupancy = bstats.meanOccupancy();
    stats.occupancyHist = bstats.occupancyHist;
    return stats;
}

} // namespace nc::serve
