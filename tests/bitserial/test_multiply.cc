/** @file Property tests for bit-serial multiply and MAC. */

#include <gtest/gtest.h>

#include "bitserial/alu.hh"
#include "common/bits.hh"
#include "common/rng.hh"

namespace
{

using namespace nc::bitserial;
using nc::sram::Array;

constexpr unsigned kLanes = 64;

struct Rig
{
    Array arr{256, kLanes};
    RowAllocator rows{256};
    unsigned zrow;

    Rig() : zrow(rows.zeroRow()) {}
};

TEST(Multiply, PaperFigure6Example)
{
    // Figure 6 multiplies 2-bit values; lane set {3x3, 2x1, 1x3, 0x2}.
    Rig rig;
    VecSlice a = rig.rows.alloc(2), b = rig.rows.alloc(2);
    VecSlice p = rig.rows.alloc(4);
    storeVector(rig.arr, a, {3, 2, 1, 0});
    storeVector(rig.arr, b, {3, 1, 3, 2});
    multiply(rig.arr, a, b, p);
    auto r = loadVector(rig.arr, p);
    EXPECT_EQ(r[0], 9u);
    EXPECT_EQ(r[1], 2u);
    EXPECT_EQ(r[2], 3u);
    EXPECT_EQ(r[3], 0u);
}

TEST(Multiply, EightBitExtremes)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice p = rig.rows.alloc(16);
    storeVector(rig.arr, a, {255, 255, 0, 1, 128});
    storeVector(rig.arr, b, {255, 1, 255, 1, 2});
    multiply(rig.arr, a, b, p);
    auto r = loadVector(rig.arr, p);
    EXPECT_EQ(r[0], 65025u);
    EXPECT_EQ(r[1], 255u);
    EXPECT_EQ(r[2], 0u);
    EXPECT_EQ(r[3], 1u);
    EXPECT_EQ(r[4], 256u);
}

TEST(Multiply, MixedWidths)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(4);
    VecSlice p = rig.rows.alloc(12);
    storeVector(rig.arr, a, {200, 255});
    storeVector(rig.arr, b, {15, 15});
    uint64_t cycles = multiply(rig.arr, a, b, p);
    EXPECT_EQ(cycles, implMulCycles(8, 4));
    auto r = loadVector(rig.arr, p);
    EXPECT_EQ(r[0], 3000u);
    EXPECT_EQ(r[1], 3825u);
}

TEST(MultiplyDeath, ProductMustBeExactWidth)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(4), b = rig.rows.alloc(4);
    VecSlice p = rig.rows.alloc(7);
    EXPECT_DEATH(multiply(rig.arr, a, b, p), "product");
}

/** Property sweep over operand widths. */
class MultiplyProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MultiplyProperty, RandomVectorsMatchReference)
{
    unsigned n = GetParam();
    nc::Rng rng(77 + n);
    Rig rig;
    VecSlice a = rig.rows.alloc(n), b = rig.rows.alloc(n);
    VecSlice p = rig.rows.alloc(2 * n);

    auto av = rng.bitVector(kLanes, n);
    auto bv = rng.bitVector(kLanes, n);
    storeVector(rig.arr, a, av);
    storeVector(rig.arr, b, bv);

    uint64_t cycles = multiply(rig.arr, a, b, p);
    EXPECT_EQ(cycles, implMulCycles(n));

    auto r = loadVector(rig.arr, p);
    for (unsigned i = 0; i < kLanes; ++i)
        EXPECT_EQ(r[i], av[i] * bv[i]) << "lane " << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplyProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

TEST(MultiplyCost, WithinPaperEnvelope)
{
    // Our schedule is n^2+4n; the paper quotes n^2+5n-2. For 8-bit
    // operands: 96 vs 102 — agreement within 6%.
    EXPECT_EQ(implMulCycles(8), 96u);
    EXPECT_EQ(paperMulCycles(8), 102u);
    for (unsigned n : {2u, 4u, 8u, 16u}) {
        double ratio = double(implMulCycles(n)) / paperMulCycles(n);
        EXPECT_GT(ratio, 0.80);
        EXPECT_LT(ratio, 1.10);
    }
}

TEST(Mac, RepeatedAccumulationConvergesToDotProduct)
{
    // Nine 8-bit MACs into a 24-bit partial sum: one conv window's
    // worth of work per lane (paper Figure 10).
    nc::Rng rng(99);
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice acc = rig.rows.alloc(24);
    VecSlice scratch = rig.rows.alloc(16);
    zero(rig.arr, acc);

    std::vector<uint64_t> want(kLanes, 0);
    for (int k = 0; k < 9; ++k) {
        auto av = rng.bitVector(kLanes, 8);
        auto bv = rng.bitVector(kLanes, 8);
        storeVector(rig.arr, a, av);
        storeVector(rig.arr, b, bv);
        macScratch(rig.arr, a, b, acc, scratch, rig.zrow);
        for (unsigned i = 0; i < kLanes; ++i)
            want[i] += av[i] * bv[i];
    }
    auto r = loadVector(rig.arr, acc);
    for (unsigned i = 0; i < kLanes; ++i)
        EXPECT_EQ(r[i], want[i]) << "lane " << i;
}

} // namespace
