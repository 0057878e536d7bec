/**
 * @file
 * Determinism of the multithreaded executor: any thread count must
 * produce bit-identical outputs AND identical aggregate cycle
 * statistics — parallelism accelerates the simulator, never the
 * modeled machine.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/executor.hh"
#include "common/rng.hh"
#include "dnn/reference.hh"

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
