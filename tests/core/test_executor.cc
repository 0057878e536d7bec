/** @file Functional executor vs reference ground truth. */

#include <gtest/gtest.h>

#include "bitserial/cost.hh"
#include "bitserial/layout.hh"
#include "common/rng.hh"
#include "core/executor.hh"
#include "core/program_verify.hh"

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

TEST(Executor, OneByOneConvSingleChannel)
{
    cache::ComputeCache cc;
    Executor ex(cc);
    QTensor in(1, 2, 2);
    in.at(0, 0, 0) = 3;
    in.at(0, 1, 1) = 7;
    QWeights w(1, 1, 1, 1);
    w.at(0, 0, 0, 0) = 5;

    unsigned oh, ow;
    auto acc = ex.conv(in, w, 1, true, oh, ow);
    EXPECT_EQ(oh, 2u);
    EXPECT_EQ(acc[0], 15u);
    EXPECT_EQ(acc[3], 35u);
}

TEST(Executor, ConvMatchesReferenceExactly)
{
    Rng rng(1234);
    cache::ComputeCache cc;
    Executor ex(cc);

    QTensor in = randomInput(rng, 8, 6, 6);
    QWeights w = randomWeights(rng, 3, 8, 3, 3);

    unsigned oh1, ow1, oh2, ow2;
    auto got = ex.conv(in, w, 1, true, oh1, ow1);
    auto want = dnn::convQuantUnsigned(in, w, 1, true, oh2, ow2);
    ASSERT_EQ(oh1, oh2);
    ASSERT_EQ(ow1, ow2);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "index " << i;
}

TEST(Executor, StridedValidConvMatchesReference)
{
    Rng rng(99);
    cache::ComputeCache cc;
    Executor ex(cc);

    QTensor in = randomInput(rng, 5, 9, 9);
    QWeights w = randomWeights(rng, 2, 5, 3, 3);

    unsigned oh1, ow1, oh2, ow2;
    auto got = ex.conv(in, w, 2, false, oh1, ow1);
    auto want = dnn::convQuantUnsigned(in, w, 2, false, oh2, ow2);
    ASSERT_EQ(oh1, 4u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "index " << i;
}

TEST(Executor, NonPow2ChannelsArePadded)
{
    Rng rng(55);
    cache::ComputeCache cc;
    Executor ex(cc);

    QTensor in = randomInput(rng, 7, 4, 4); // pads to 8 lanes
    QWeights w = randomWeights(rng, 2, 7, 1, 1);

    unsigned oh1, ow1, oh2, ow2;
    auto got = ex.conv(in, w, 1, true, oh1, ow1);
    auto want = dnn::convQuantUnsigned(in, w, 1, true, oh2, ow2);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "index " << i;
}

TEST(Executor, AsymmetricFilterMatchesReference)
{
    Rng rng(77);
    cache::ComputeCache cc;
    Executor ex(cc);

    QTensor in = randomInput(rng, 4, 5, 5);
    QWeights w = randomWeights(rng, 2, 4, 1, 3); // 1x3 tap

    unsigned oh1, ow1, oh2, ow2;
    auto got = ex.conv(in, w, 1, true, oh1, ow1);
    auto want = dnn::convQuantUnsigned(in, w, 1, true, oh2, ow2);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "index " << i;
}

TEST(Executor, ConvConsumesComputeCycles)
{
    Rng rng(3);
    cache::ComputeCache cc;
    Executor ex(cc);
    QTensor in = randomInput(rng, 4, 3, 3);
    QWeights w = randomWeights(rng, 1, 4, 3, 3);
    unsigned oh, ow;
    ex.conv(in, w, 1, true, oh, ow);
    // 9 outputs x (9 MACs + zeroing + reduction) each.
    uint64_t per_window =
        bitserial::implCopyCycles(26) +
        9 * bitserial::implMacScratchCycles(8, 24) +
        bitserial::implReduceSumCycles(24, 4, 2);
    EXPECT_EQ(ex.lockstepCycles(), 9 * per_window);
}

TEST(Executor, MaxPoolMatchesReference)
{
    Rng rng(21);
    cache::ComputeCache cc;
    Executor ex(cc);
    QTensor in = randomInput(rng, 6, 6, 6);

    auto got = ex.maxPool(in, 3, 3, 2, false);
    auto want = dnn::maxPoolQuant(in, 3, 3, 2, false);
    ASSERT_EQ(got.height(), want.height());
    for (unsigned c = 0; c < 6; ++c)
        for (unsigned y = 0; y < got.height(); ++y)
            for (unsigned x = 0; x < got.width(); ++x)
                EXPECT_EQ(got.at(c, y, x), want.at(c, y, x));
}

TEST(Executor, MaxPoolRunsOnItsScratchArray)
{
    // Every window runs in order on the scratch array the call names:
    // its running-max rows end holding the maxima of the last window
    // walked, it carries every cycle, and no other array
    // materializes.
    Rng rng(22);
    cache::ComputeCache cc;
    Executor ex(cc, 4);
    QTensor in = randomInput(rng, 6, 7, 7);
    const uint64_t scratch = 5;
    const sram::Array &arr = cc.array(scratch);
    const size_t materialized = cc.materializedCount();

    auto got = ex.maxPool(in, 3, 3, 2, false, scratch);
    auto want = dnn::maxPoolQuant(in, 3, 3, 2, false);
    EXPECT_EQ(got.data(), want.data());
    EXPECT_EQ(cc.materializedCount(), materialized);
    EXPECT_GT(arr.computeCycles(), 0u);
    EXPECT_EQ(cc.totalComputeCycles(), arr.computeCycles());

    const mapping::PoolRowLayout rows =
        mapping::makePoolRowLayout(cc.geometry());
    const unsigned y = got.height() - 1, x = got.width() - 1;
    for (unsigned c = 0; c < in.channels(); ++c)
        EXPECT_EQ(bitserial::loadLane(arr, rows.best, c),
                  want.at(c, y, x))
            << "channel " << c;
}

TEST(Executor, MaxPoolTouchesTheScratchArrayFaultRecord)
{
    // Faults configured with BIST off, so no array retires: a one-shot
    // flip scheduled on the scratch array's running-max band is
    // consumed by the pool's own touches (the fold's first
    // instruction overwrites the struck row, so the output holds).
    Rng rng(23);
    cache::ComputeCache cc;
    sram::faults::Config fcfg;
    fcfg.bist = false;
    fcfg.killArrays = {cc.geometry().totalArrays() - 1};
    cc.configureFaults(fcfg);
    Executor ex(cc, 4);
    QTensor in = randomInput(rng, 6, 7, 7);
    const uint64_t scratch = 5;
    const uint64_t physical = cc.physicalOf(scratch);
    const mapping::PoolRowLayout rows =
        mapping::makePoolRowLayout(cc.geometry());
    cc.array(scratch);
    cc.injectFlip(physical, rows.best.base, 3);
    const sram::faults::ArrayFaults *rec =
        cc.faultRegistry()->recordFor(physical);
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->faulty());

    auto got = ex.maxPool(in, 3, 3, 2, false, scratch);
    EXPECT_GT(rec->touches(), 0u);
    EXPECT_FALSE(rec->faulty()) << "the scheduled flip is still pending";
    EXPECT_EQ(got.data(), dnn::maxPoolQuant(in, 3, 3, 2, false).data());
}

TEST(Executor, EveryFilterArrayRunsTheSameStream)
{
    // One array per filter batch, each running the layer's window
    // program once per output window: every array is charged the
    // identical cycles, the §IV-F lock-step.
    Rng rng(2027);
    cache::ComputeCache cc;
    Executor ex(cc);
    QTensor in = randomInput(rng, 4, 4, 4);
    QWeights w = randomWeights(rng, 6, 4, 3, 3);
    auto layer = ex.prepareConv(
        w,
        mapping::planFunctionalConv(dnn::conv("c", 4, 4, 4, 3, 3, 6).conv,
                                    cc.geometry()),
        1, true);
    unsigned oh, ow;
    layer.run(in, w, oh, ow);

    uint64_t per_window = 0;
    for (const core::Instruction &inst : layer.program())
        per_window += core::verify::instructionCycles(inst, {});
    EXPECT_EQ(cc.materializedCount(), 6u);
    EXPECT_EQ(cc.lockstepCycles(), uint64_t(oh) * ow * per_window);
    EXPECT_EQ(cc.totalComputeCycles(), cc.lockstepCycles() * 6);
}

TEST(Executor, MultipleMsSpreadAcrossArrays)
{
    Rng rng(8);
    cache::ComputeCache cc;
    Executor ex(cc);
    QTensor in = randomInput(rng, 4, 3, 3);
    QWeights w = randomWeights(rng, 4, 4, 3, 3);
    unsigned oh, ow;
    ex.conv(in, w, 1, true, oh, ow);
    EXPECT_EQ(cc.materializedCount(), 4u);
}

} // namespace
