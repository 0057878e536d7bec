/**
 * @file
 * Determinism of the multithreaded executor: any thread count must
 * produce bit-identical outputs AND identical cycle statistics —
 * parallelism accelerates the simulator, never the modeled machine.
 * For conv that holds array by array: however a pass is cut into
 * lockstep groups, every array ends in the same state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/executor.hh"
#include "dnn/reference.hh"
#include "sram/faults.hh"

namespace
{

using namespace nc;
using core::Executor;
using dnn::QTensor;
using dnn::QWeights;

QTensor
randomInput(Rng &rng, unsigned c, unsigned h, unsigned w)
{
    QTensor t(c, h, w);
    for (auto &v : t.data())
        v = static_cast<uint8_t>(rng.uniformBits(8));
    return t;
}

QWeights
randomWeights(Rng &rng, unsigned m, unsigned c, unsigned r, unsigned s)
{
    QWeights w(m, c, r, s);
    for (auto &v : w.data)
        v = static_cast<uint8_t>(rng.uniformBits(8));
    return w;
}

TEST(ExecutorThreads, ConvIdenticalAcrossThreadCounts)
{
    Rng rng(404);
    QTensor in = randomInput(rng, 8, 7, 7);
    QWeights w = randomWeights(rng, 6, 8, 3, 3);

    cache::ComputeCache cc1, cc4;
    Executor ex1(cc1, 1);
    Executor ex4(cc4, 4);
    EXPECT_EQ(ex1.threads(), 1u);
    EXPECT_EQ(ex4.threads(), 4u);

    unsigned oh1, ow1, oh4, ow4;
    auto a = ex1.conv(in, w, 1, true, oh1, ow1);
    auto b = ex4.conv(in, w, 1, true, oh4, ow4);
    EXPECT_EQ(oh1, oh4);
    EXPECT_EQ(ow1, ow4);
    EXPECT_EQ(a, b);

    // The modeled machine is untouched by simulator parallelism.
    EXPECT_EQ(cc1.lockstepCycles(), cc4.lockstepCycles());
    EXPECT_EQ(cc1.totalComputeCycles(), cc4.totalComputeCycles());
    EXPECT_EQ(cc1.totalAccessCycles(), cc4.totalAccessCycles());
    EXPECT_EQ(cc1.materializedCount(), cc4.materializedCount());
}

/** Everything a conv run leaves behind in one array. */
struct ArrayState
{
    std::vector<sram::BitRow> rows;
    sram::BitRow carry, tag;
    uint64_t compute = 0, access = 0;

    bool operator==(const ArrayState &) const = default;
};

struct GroupCase
{
    const char *name;
    unsigned c, h, w, m, r, s;
    unsigned pack, split, chunks; ///< the transforms the plan must pick
    uint64_t band;                ///< 0 = whole layer resident
    int faultyArray = -1; ///< flat index given a stuck cell, or none
};

/**
 * A partial-sum row: every window rewrites it and reads lane 0 back,
 * so the stuck cell shows in the output unless every touch of the
 * faulted array passes its fault hook.
 */
constexpr unsigned kStuckRow = 165;

/** Run @p gc on a fresh cache with @p threads workers; return the
 * output and the state of every band array. */
std::pair<std::vector<uint32_t>, std::vector<ArrayState>>
runGroupCase(const GroupCase &gc, const QTensor &in, const QWeights &w,
             unsigned threads)
{
    cache::ComputeCache cc;
    if (gc.faultyArray >= 0) {
        sram::faults::Config cfg;
        cfg.bist = false;
        cfg.stuckCells.push_back(
            {static_cast<uint64_t>(gc.faultyArray),
             sram::faults::StuckCell{kStuckRow, 0, true}});
        cc.configureFaults(cfg);
    }
    Executor ex(cc, threads);
    auto layer = ex.prepareConv(w, 1, true, 0, gc.band);
    if (gc.faultyArray >= 0) {
        EXPECT_NE(cc.array(cc.coordOf(gc.faultyArray)).faultRecord(),
                  nullptr);
        const auto &partial = layer.rowLayout().partial;
        EXPECT_GE(kStuckRow, partial.base);
        EXPECT_LT(kStuckRow, partial.base + partial.bits);
    }
    EXPECT_EQ(layer.plan().packFactor, gc.pack);
    EXPECT_EQ(layer.plan().splitFactor, gc.split);
    EXPECT_EQ(layer.plan().chunks, gc.chunks);
    EXPECT_EQ(layer.resident(), gc.band == 0);

    unsigned oh, ow;
    auto out = layer.run(in, w, oh, ow);
    std::vector<ArrayState> states;
    for (uint64_t i = 0; i < layer.bandArrays(); ++i) {
        sram::Array &a = cc.array(cc.coordOf(i));
        ArrayState st;
        for (unsigned r = 0; r < a.rows(); ++r)
            st.rows.push_back(a.rowRef(r));
        st.carry = a.carry();
        st.tag = a.tag();
        st.compute = a.computeCycles();
        st.access = a.accessCycles();
        states.push_back(std::move(st));
    }
    EXPECT_EQ(cc.materializedCount(), layer.bandArrays());
    return {std::move(out), std::move(states)};
}

TEST(ExecutorThreads, ConvArraysIdenticalAcrossLockstepGroups)
{
    // One thread runs a pass as one group array (every member in
    // lockstep); more threads cut it into more, narrower groups; a
    // count at or above the array count leaves every array on its
    // own. Whatever the cut, every array must end with the same
    // rows, latches and cycle counters — and a group holding a
    // faulted array runs each member on its own array.
    const std::vector<GroupCase> cases = {
        {"plain", 8, 7, 7, 6, 3, 3, 1, 1, 1, 0},
        {"split", 8, 6, 6, 5, 5, 5, 1, 3, 1, 0},
        {"packed", 300, 4, 4, 4, 1, 1, 16, 1, 1, 0},
        {"two-chunk", 300, 4, 4, 3, 3, 3, 1, 1, 2, 0},
        {"streaming", 8, 6, 6, 7, 3, 3, 1, 1, 1, 3},
        {"streaming-two-chunk", 300, 3, 3, 5, 3, 3, 1, 1, 2, 4},
        {"faulted", 8, 7, 7, 6, 3, 3, 1, 1, 1, 0, 2},
    };
    for (const GroupCase &gc : cases) {
        SCOPED_TRACE(gc.name);
        Rng rng(0x6a0u + gc.c + gc.m);
        QTensor in = randomInput(rng, gc.c, gc.h, gc.w);
        QWeights w = randomWeights(rng, gc.m, gc.c, gc.r, gc.s);

        auto [want_out, want_states] = runGroupCase(gc, in, w, 1);
        unsigned oh, ow;
        auto golden = dnn::convQuantUnsigned(in, w, 1, true, oh, ow);
        // A stuck cell that never showed would prove nothing.
        if (gc.faultyArray < 0)
            EXPECT_EQ(want_out, golden);
        else
            EXPECT_NE(want_out, golden);
        for (unsigned threads : {2u, 3u, 4u, 8u}) {
            auto [out, states] = runGroupCase(gc, in, w, threads);
            EXPECT_EQ(out, want_out) << threads << " threads";
            ASSERT_EQ(states.size(), want_states.size());
            for (size_t i = 0; i < states.size(); ++i) {
                EXPECT_TRUE(states[i] == want_states[i])
                    << "array " << i << " differs with " << threads
                    << " threads";
            }
        }
    }
}

TEST(ExecutorThreads, PoolReportsWhenLoopsRunInline)
{
    common::ThreadPool solo(1), pool(4), other(3);
    EXPECT_TRUE(solo.runsInline());
    EXPECT_FALSE(pool.runsInline());
    EXPECT_FALSE(other.runsInline());

    std::atomic<unsigned> inline_here{0}, other_inline{0};
    pool.parallelFor(16, [&](size_t) {
        inline_here += pool.runsInline();
        other_inline += other.runsInline();
    });
    EXPECT_EQ(inline_here.load(), 16u);
    EXPECT_EQ(other_inline.load(), 0u);
    EXPECT_FALSE(pool.runsInline());
}

TEST(ExecutorThreads, MaxPoolIdenticalAcrossThreadCounts)
{
    Rng rng(405);
    QTensor in = randomInput(rng, 6, 9, 9);

    cache::ComputeCache cc1, cc4;
    Executor ex1(cc1, 1);
    Executor ex4(cc4, 4);

    auto a = ex1.maxPool(in, 3, 3, 2, false);
    auto b = ex4.maxPool(in, 3, 3, 2, false);
    ASSERT_EQ(a.height(), b.height());
    ASSERT_EQ(a.width(), b.width());
    for (unsigned c = 0; c < 6; ++c)
        for (unsigned y = 0; y < a.height(); ++y)
            for (unsigned x = 0; x < a.width(); ++x)
                EXPECT_EQ(a.at(c, y, x), b.at(c, y, x));

    EXPECT_EQ(cc1.lockstepCycles(), cc4.lockstepCycles());
    EXPECT_EQ(cc1.totalComputeCycles(), cc4.totalComputeCycles());
    EXPECT_EQ(cc1.totalAccessCycles(), cc4.totalAccessCycles());

    auto want = dnn::maxPoolQuant(in, 3, 3, 2, false);
    for (unsigned c = 0; c < 6; ++c)
        for (unsigned y = 0; y < a.height(); ++y)
            for (unsigned x = 0; x < a.width(); ++x)
                EXPECT_EQ(a.at(c, y, x), want.at(c, y, x));
}

TEST(ExecutorThreads, FcMatchesReference)
{
    Rng rng(407);
    std::vector<uint8_t> in(24);
    for (auto &v : in)
        v = static_cast<uint8_t>(rng.uniformBits(8));
    QWeights w = randomWeights(rng, 10, 24, 1, 1);

    cache::ComputeCache cc;
    Executor ex(cc, 3);
    auto got = ex.fc(in, w);
    ASSERT_EQ(got.size(), 10u);

    QTensor t(24, 1, 1);
    for (unsigned ci = 0; ci < 24; ++ci)
        t.at(ci, 0, 0) = in[ci];
    unsigned oh, ow;
    auto want = dnn::convQuantUnsigned(t, w, 1, false, oh, ow);
    EXPECT_EQ(got, want);
}

TEST(ExecutorThreads, NcThreadsEnvSelectsDefault)
{
    // The constructor argument always wins; 0 defers to NC_THREADS.
    setenv("NC_THREADS", "3", 1);
    cache::ComputeCache cc;
    Executor ex(cc, 0);
    EXPECT_EQ(ex.threads(), 3u);
    unsetenv("NC_THREADS");
}

} // namespace
