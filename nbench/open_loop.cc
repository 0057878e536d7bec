#include "open_loop.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "stats.hh"

namespace nc::nbench
{

Schedule
Schedule::steady(double rps, double seconds)
{
    Schedule s;
    s.intervalMs = 1e3 / rps;
    size_t n = std::max<size_t>(1, static_cast<size_t>(rps * seconds));
    for (size_t k = 0; k < n; ++k)
        s.dueMs.push_back(static_cast<double>(k) * s.intervalMs);
    return s;
}

Schedule
Schedule::bursts(unsigned size, double period_ms, double seconds)
{
    Schedule s;
    s.intervalMs = period_ms;
    size_t n = std::max<size_t>(
        1, static_cast<size_t>(seconds * 1e3 / period_ms));
    for (size_t b = 0; b < n; ++b)
        for (unsigned k = 0; k < size; ++k)
            s.dueMs.push_back(static_cast<double>(b) * period_ms);
    return s;
}

uint64_t
OpenLoopResult::failed() const
{
    uint64_t n = 0;
    for (const auto &s : samples)
        n += !s.received || s.status != serve::wire::Status::Ok ||
             !s.matches;
    return n;
}

std::vector<double>
OpenLoopResult::latenciesMs() const
{
    std::vector<double> v;
    for (const auto &s : samples)
        if (s.received && s.status == serve::wire::Status::Ok &&
            s.matches)
            v.push_back(s.latency());
    return v;
}

std::vector<double>
OpenLoopResult::lagsMs() const
{
    std::vector<double> v;
    for (const auto &s : samples)
        v.push_back(s.lag());
    return v;
}

bool
OpenLoopResult::backlogGrowing() const
{
    std::vector<double> lat = latenciesMs();
    size_t q = lat.size() / 4;
    if (q < 2)
        return false;
    double third = median({lat.end() - 2 * q, lat.end() - q});
    double last = median({lat.end() - q, lat.end()});
    return last > 1.25 * third && last - third > 1.0;
}

OpenLoopResult
runOpenLoop(serve::InferenceServer &server,
            const std::vector<dnn::QTensor> &inputs,
            const std::vector<dnn::QTensor> &expected,
            const std::vector<size_t> &pick, const Schedule &when,
            uint64_t first_id, Tracer &tr)
{
    using Clock = std::chrono::steady_clock;
    const size_t n = when.dueMs.size();
    OpenLoopResult res;
    res.intervalMs = when.intervalMs;
    res.samples.resize(n);

    std::vector<serve::wire::RequestFrame> reqs(n);
    for (size_t k = 0; k < n; ++k) {
        reqs[k].id = first_id + k;
        reqs[k].input = inputs[pick[k]];
        res.samples[k].id = first_id + k;
        res.samples[k].dueMs = when.dueMs[k];
    }

    auto client = server.loopback();
    // Start slightly in the future so the first send is not late by
    // the receiver's own start-up.
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(5);
    auto msAt = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::milli>(t - t0)
            .count();
    };

    // The sender writes only sentMs; the receiver writes only the
    // receipt fields; both are read after the join.
    std::vector<double> sent(n);
    std::thread sender([&] {
        for (size_t k = 0; k < n; ++k) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             res.samples[k].dueMs)));
            sent[k] = msAt(Clock::now());
            Span s(tr, "serve", "LoopbackClient::send", reqs[k].id);
            client.send(reqs[k]);
        }
    });

    std::vector<serve::wire::ResponseFrame> got(n);
    std::vector<double> receipt(n);
    std::vector<bool> have(n);
    for (size_t k = 0; k < n; ++k) {
        std::optional<serve::wire::ResponseFrame> rsp;
        {
            Span s(tr, "serve", "LoopbackClient::receive");
            rsp = client.receive();
            if (rsp)
                s.setRequest(rsp->id);
        }
        double at = msAt(Clock::now());
        if (!rsp)
            break; // timed out: the rest count as not received
        if (rsp->id < first_id || rsp->id - first_id >= n)
            continue; // unparseable request echo (id 0)
        size_t i = rsp->id - first_id;
        receipt[i] = at;
        have[i] = true;
        got[i] = std::move(*rsp);
    }
    sender.join();

    for (size_t k = 0; k < n; ++k) {
        RequestSample &s = res.samples[k];
        s.sentMs = sent[k];
        if (!have[k])
            continue;
        const auto &rsp = got[k];
        const dnn::QTensor &want = expected[pick[k]];
        s.received = true;
        s.receiptMs = receipt[k];
        s.status = rsp.status;
        s.queueMs = rsp.queueMs;
        s.latencyMs = rsp.latencyMs;
        s.matches = rsp.status == serve::wire::Status::Ok &&
                    rsp.output.channels() == want.channels() &&
                    rsp.output.data() == want.data();
        auto ns = [&](double ms) {
            return tr.toNs(t0) + static_cast<int64_t>(ms * 1e6);
        };
        tr.record("serve", "request", ns(s.dueMs), ns(s.receiptMs),
                  s.id);
    }
    return res;
}

} // namespace nc::nbench
