/** @file Tests for avg-pool, min/max, and in-cache requantization. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/executor.hh"

namespace
{

using namespace nc;
using core::Executor;

dnn::QTensor
randomInput(Rng &rng, unsigned c, unsigned h, unsigned w)
{
    dnn::QTensor t(c, h, w);
    for (auto &v : t.data())
        v = static_cast<uint8_t>(rng.uniformBits(8));
    return t;
}

TEST(ExecutorAvgPool, PowerOfTwoWindowUsesShift)
{
    // 2x2 window: average = sum >> 2, exactly.
    Rng rng(9);
    cache::ComputeCache cc;
    Executor ex(cc);
    auto in = randomInput(rng, 4, 4, 4);

    auto got = ex.avgPool(in, 2, 2, 2);
    ASSERT_EQ(got.height(), 2u);
    for (unsigned c = 0; c < 4; ++c)
        for (unsigned y = 0; y < 2; ++y)
            for (unsigned x = 0; x < 2; ++x) {
                unsigned sum = in.at(c, 2 * y, 2 * x) +
                               in.at(c, 2 * y, 2 * x + 1) +
                               in.at(c, 2 * y + 1, 2 * x) +
                               in.at(c, 2 * y + 1, 2 * x + 1);
                EXPECT_EQ(got.at(c, y, x), sum / 4)
                    << c << "," << y << "," << x;
            }
}

TEST(ExecutorAvgPool, NonPow2WindowUsesDivision)
{
    // 3x3 window: divide by 9 through restoring division (§IV-D:
    // "the divisor is only 4 bits in Inception v3").
    Rng rng(10);
    cache::ComputeCache cc;
    Executor ex(cc);
    auto in = randomInput(rng, 3, 5, 5);

    auto got = ex.avgPool(in, 3, 3, 1);
    ASSERT_EQ(got.height(), 3u);
    for (unsigned c = 0; c < 3; ++c)
        for (unsigned y = 0; y < 3; ++y)
            for (unsigned x = 0; x < 3; ++x) {
                unsigned sum = 0;
                for (unsigned ri = 0; ri < 3; ++ri)
                    for (unsigned si = 0; si < 3; ++si)
                        sum += in.at(c, y + ri, x + si);
                EXPECT_EQ(got.at(c, y, x), sum / 9)
                    << c << "," << y << "," << x;
            }
}

TEST(ExecutorAvgPool, InceptionHeadShape)
{
    // The 8x8 global average of Inception's head: 64 = power of two.
    Rng rng(11);
    cache::ComputeCache cc;
    Executor ex(cc);
    auto in = randomInput(rng, 16, 8, 8);
    auto got = ex.avgPool(in, 8, 8, 1);
    EXPECT_EQ(got.height(), 1u);
    EXPECT_EQ(got.width(), 1u);
    for (unsigned c = 0; c < 16; ++c) {
        unsigned sum = 0;
        for (unsigned y = 0; y < 8; ++y)
            for (unsigned x = 0; x < 8; ++x)
                sum += in.at(c, y, x);
        EXPECT_EQ(got.at(c, 0, 0), sum / 64) << "channel " << c;
    }
}

TEST(ExecutorRequantize, TruncatingMultiplyShift)
{
    cache::ComputeCache cc;
    Executor ex(cc);
    std::vector<uint32_t> acc{0, 1000, 123456, 700000};
    uint8_t mult = 191;
    unsigned shift = 19;
    auto q = ex.requantize(acc, mult, shift);
    ASSERT_EQ(q.size(), acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
        uint64_t want = (uint64_t(acc[i]) * mult) >> shift;
        want = std::min<uint64_t>(want, 255);
        EXPECT_EQ(q[i], want) << "acc " << acc[i];
    }
}

TEST(ExecutorRequantize, BatchesBeyondOneArrayWidth)
{
    Rng rng(13);
    cache::ComputeCache cc;
    Executor ex(cc);
    std::vector<uint32_t> acc(600);
    for (auto &a : acc)
        a = static_cast<uint32_t>(rng.uniformBits(20));
    uint8_t mult = 37;
    unsigned shift = 12;
    auto q = ex.requantize(acc, mult, shift);
    for (size_t i = 0; i < acc.size(); ++i) {
        uint64_t want =
            std::min<uint64_t>((uint64_t(acc[i]) * mult) >> shift,
                               255);
        EXPECT_EQ(q[i], want) << i;
    }
}

TEST(ExecutorRequantize, TracksCpuRequantizeWithinTruncation)
{
    // The CPU helper rounds; the in-cache path truncates. They agree
    // within one LSB, which is the error budget §IV-D tolerates.
    Rng rng(14);
    cache::ComputeCache cc;
    Executor ex(cc);

    double real = 0.00037;
    int32_t mult32;
    int shift32;
    dnn::quantizeMultiplier(real, mult32, shift32);
    // Reduce to an 8-bit multiplier for the in-cache path.
    uint8_t mult8 = static_cast<uint8_t>(mult32 >> 23);
    unsigned shift8 = static_cast<unsigned>(shift32 - 23);

    std::vector<uint32_t> acc(64);
    for (auto &a : acc)
        a = static_cast<uint32_t>(rng.uniformBits(18));
    auto q = ex.requantize(acc, mult8, shift8);
    for (size_t i = 0; i < acc.size(); ++i) {
        uint8_t cpu = dnn::requantize(static_cast<int32_t>(acc[i]),
                                      mult32, shift32, 0);
        EXPECT_NEAR(q[i], cpu, 2) << "acc " << acc[i];
    }
}

} // namespace
