#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace nc::nbench
{

namespace
{

/** The innermost span open on this thread (per-thread nesting). */
thread_local int64_t tlsOpen = -1;

} // namespace

unsigned
Tracer::threadIndex()
{
    auto id = std::this_thread::get_id();
    auto it = tids.find(id);
    if (it != tids.end())
        return it->second;
    unsigned next = static_cast<unsigned>(tids.size());
    tids.emplace(id, next);
    return next;
}

int64_t
Tracer::open(const char *cat, const char *name, uint64_t request_id)
{
    SpanRecord r;
    r.cat = cat;
    r.name = name;
    r.parent = tlsOpen;
    r.requestId = request_id;
    std::lock_guard lk(mtx);
    r.tid = threadIndex();
    r.startNs = nowNs();
    recs.push_back(r);
    tlsOpen = static_cast<int64_t>(recs.size() - 1);
    return tlsOpen;
}

void
Tracer::close(int64_t idx)
{
    int64_t end = nowNs();
    std::lock_guard lk(mtx);
    SpanRecord &r = recs[static_cast<size_t>(idx)];
    r.endNs = end;
    tlsOpen = r.parent;
}

void
Tracer::setRequest(int64_t idx, uint64_t request_id)
{
    std::lock_guard lk(mtx);
    recs[static_cast<size_t>(idx)].requestId = request_id;
}

void
Tracer::record(const char *cat, const char *name, int64_t start_ns,
               int64_t end_ns, uint64_t request_id)
{
    if (!on)
        return;
    SpanRecord r;
    r.cat = cat;
    r.name = name;
    r.startNs = start_ns;
    r.endNs = end_ns;
    r.parent = tlsOpen;
    r.requestId = request_id;
    std::lock_guard lk(mtx);
    r.tid = threadIndex();
    recs.push_back(r);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard lk(mtx);
    return recs;
}

std::vector<double>
selfTimesNs(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans.size())
            children[static_cast<size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (size_t c : children[i]) {
            int64_t a = std::max(spans[c].startNs, s.startNs);
            int64_t b = std::min(spans[c].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        self[i] = static_cast<double>(s.endNs - s.startNs - covered);
    }
    return self;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans)
{
    std::vector<double> self = selfTimesNs(spans);
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t =
            out[std::string(spans[i].cat) + "." + spans[i].name];
        ++t.count;
        t.totalMs +=
            static_cast<double>(spans[i].endNs - spans[i].startNs) *
            1e-6;
        t.selfMs += self[i] * 1e-6;
    }
    return out;
}

namespace
{

void
putJsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            std::fputc('\\', f);
        if (static_cast<unsigned char>(ch) < 0x20)
            ch = ' ';
        std::fputc(ch, f);
    }
    std::fputc('"', f);
}

} // namespace

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    std::vector<SpanRecord> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    for (size_t i = 0; i < meta.size(); ++i) {
        std::fprintf(f, "%s", i ? ", " : "");
        putJsonString(f, meta[i].first);
        std::fprintf(f, ": ");
        putJsonString(f, meta[i].second);
    }
    std::fprintf(f, "},\n\"traceEvents\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"cat\": \"%s\", \"name\": \"%s\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %zu, \"parent\": %lld, "
                     "\"request\": %llu}}%s\n",
                     s.tid, s.cat, s.name,
                     static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     i, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.requestId),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace nc::nbench
