/**
 * @file
 * Self-tests of the benchmark's own helpers: the tail-percentile
 * rule, quartiles (against values Python's statistics.quantiles
 * gives), span self time, error against the paper, and the lagging
 * generator and growing-backlog verdicts. Exits 1 on any failure.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "open_loop.hh"
#include "spans.hh"
#include "stats.hh"

namespace
{

using namespace nc::nbench;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(unsigned n)
{
    std::vector<double> v;
    for (unsigned i = n; i >= 1; --i) // descending: order must not matter
        v.push_back(i);
    return v;
}

void
testTailRule()
{
    Tail t19 = tailOf(oneTo(19));
    expect(!t19.valid, "19 samples support no percentile");
    Tail t20 = tailOf(oneTo(20));
    expect(t20.valid && t20.percentile == 50 && near(t20.value, 10) &&
               t20.beyond == 10,
           "20 samples: p50 = 10 with 10 beyond");
    Tail t100 = tailOf(oneTo(100));
    expect(t100.valid && t100.percentile == 90 &&
               near(t100.value, 90) && t100.beyond == 10 &&
               t100.samples == 100,
           "100 samples: p90 = 90 with 10 beyond");
    Tail t999 = tailOf(oneTo(999));
    expect(t999.percentile == 90, "999 samples: still p90");
    Tail t1000 = tailOf(oneTo(1000));
    expect(t1000.percentile == 99 && near(t1000.value, 990) &&
               t1000.beyond == 10,
           "1000 samples: p99 = 990");
    Tail t10k = tailOf(oneTo(10000));
    expect(t10k.percentile == 99.9 && near(t10k.value, 9990),
           "10000 samples: p99.9 = 9990");
    expect(near(median(oneTo(4)), 2.5) && near(median({7}), 7) &&
               median({}) == 0,
           "median");
}

void
testQuartiles()
{
    struct Case
    {
        std::vector<double> data;
        double q1, q2, q3; // statistics.quantiles(data, n=4)
    } cases[] = {
        {oneTo(10), 2.75, 5.5, 8.25},
        {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
        {{5, 1, 3}, 1, 3, 5},
        {{2.5, 9}, 0.875, 5.75, 10.625},
        {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
    };
    for (const auto &c : cases) {
        Quartiles q = quartiles(c.data);
        expect(near(q.q1, c.q1) && near(q.q2, c.q2) && near(q.q3, c.q3),
               "quartiles match statistics.quantiles(n=4)");
    }
}

SpanRecord
rec(int64_t a, int64_t b, int64_t parent)
{
    SpanRecord r;
    r.startNs = a;
    r.endNs = b;
    r.parent = parent;
    return r;
}

void
testSelfTime()
{
    // 0: [0,100] with children 1 [10,30] and 2 [20,50] overlapping
    // (40 covered once) and 3 [90,120] clipped to [90,100]; 4 is a
    // grandchild, which only reduces its own parent's self time.
    std::vector<SpanRecord> s = {rec(0, 100, -1), rec(10, 30, 0),
                                 rec(20, 50, 0), rec(90, 120, 0),
                                 rec(12, 18, 1)};
    auto self = selfTimesNs(s);
    expect(near(self[0], 50), "parent self = 100 - 40 - 10");
    expect(near(self[1], 14), "child self = 20 - grandchild 6");
    expect(near(self[2], 30) && near(self[4], 6), "leaf self = duration");

    Tracer tr(true);
    {
        Span outer(tr, "core", "outer");
        Span inner(tr, "core", "inner", 7);
    }
    auto spans = tr.spans();
    expect(spans.size() == 2 && spans[1].parent == 0 &&
               spans[0].parent == -1 && spans[1].requestId == 7,
           "RAII spans nest and carry the request id");
    auto totals = spanTotals(spans);
    expect(totals.count("core.outer") && totals["core.outer"].count == 1,
           "totals keyed by module.call");
    Tracer off(false);
    {
        Span s1(off, "core", "ignored");
    }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

void
testPaperError()
{
    expect(near(paperErrorPct(4.72, 4.72), 0), "exact value: 0 %");
    expect(near(paperErrorPct(4.86, 4.72), 14.0 / 4.72),
           "4.86 vs 4.72 ms: 2.97 %");
    expect(near(paperErrorPct(548, 604), 56.0 / 6.04),
           "error is absolute (below the paper too)");
}

void
testGeneratorLag()
{
    // Inter-arrival 4 ms: lagging once the tail lag passes 1 ms.
    std::vector<double> lag(100, 0.1);
    expect(!generatorLagging(lag, 4.0), "on-schedule sends");
    for (unsigned i = 0; i < 5; ++i)
        lag[i] = 2.0;
    expect(!generatorLagging(lag, 4.0),
           "5 late sends of 100 stay under the p90");
    for (unsigned i = 0; i < 15; ++i)
        lag[i] = 2.0;
    expect(generatorLagging(lag, 4.0), "15 late sends of 100 lag");
    expect(generatorLagging({0.1, 0.1, 2.0}, 4.0),
           "few sends: the worst one decides");
    expect(!generatorLagging({}, 4.0), "no sends, no lag");

    OpenLoopResult r;
    for (unsigned k = 0; k < 40; ++k) {
        RequestSample s;
        s.received = s.matches = true;
        s.dueMs = k;
        s.receiptMs = k + 3.0; // steady 3 ms
        r.samples.push_back(s);
    }
    expect(!r.backlogGrowing() && r.failed() == 0, "steady latency");
    for (unsigned k = 20; k < 40; ++k)
        r.samples[k].receiptMs = k + 3.0 + (k - 20); // climbing
    expect(r.backlogGrowing(), "climbing latency is a growing backlog");
    r.samples[0].matches = false;
    expect(r.failed() == 1, "a mismatched output is a failure");
}

} // namespace

int
main()
{
    testTailRule();
    testQuartiles();
    testSelfTime();
    testPaperError();
    testGeneratorLag();
    std::printf("nbench_selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}
