/** @file Tests for bit-serial division and shifts. */

#include <gtest/gtest.h>

#include "bitserial/alu.hh"
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

TEST(ShiftDown, DividesByPowerOfTwo)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(8);
    storeVector(rig.arr, v, {64, 65, 3});
    shiftDown(rig.arr, v, 6);
    auto r = loadVector(rig.arr, v);
    EXPECT_EQ(r[0], 1u);
    EXPECT_EQ(r[1], 1u);
    EXPECT_EQ(r[2], 0u);
}

TEST(Shift, WholeWidthClears)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(8);
    storeVector(rig.arr, v, {0xff});
    shiftDown(rig.arr, v, 8);
    EXPECT_EQ(loadVector(rig.arr, v)[0], 0u);
    storeVector(rig.arr, v, {0xff});
    shiftDown(rig.arr, v, 9);
    EXPECT_EQ(loadVector(rig.arr, v)[0], 0u);
}

TEST(Divide, AvgPoolStyleWindowDivision)
{
    // The paper's avg-pool case: sums divided by a 4-bit window size.
    Rig rig;
    VecSlice num = rig.rows.alloc(16), den = rig.rows.alloc(4);
    VecSlice quot = rig.rows.alloc(16);
    VecSlice rwork = rig.rows.alloc(20);
    VecSlice twork = rig.rows.alloc(5), dwork = rig.rows.alloc(5);

    storeVector(rig.arr, num, {81, 90, 9000, 8, 0});
    storeVector(rig.arr, den, {9, 9, 9, 9, 9});
    uint64_t cycles =
        divide(rig.arr, num, den, quot, rwork, twork, dwork);
    EXPECT_EQ(cycles, implDivCycles(16, 4));

    auto q = loadVector(rig.arr, quot);
    EXPECT_EQ(q[0], 9u);
    EXPECT_EQ(q[1], 10u);
    EXPECT_EQ(q[2], 1000u);
    EXPECT_EQ(q[3], 0u);
    EXPECT_EQ(q[4], 0u);

    // Remainder sits in the low divisor-width rows of rwork.
    auto r = loadVector(rig.arr, rwork.slice(0, 4));
    EXPECT_EQ(r[0], 0u);
    EXPECT_EQ(r[3], 8u);
}

/** Property sweep: random dividend/divisor pairs. */
class DivideProperty : public ::testing::TestWithParam<
                           std::tuple<unsigned, unsigned>>
{
};

TEST_P(DivideProperty, MatchesIntegerDivision)
{
    auto [n, d] = GetParam();
    nc::Rng rng(n * 100 + d);

    Rig rig;
    VecSlice num = rig.rows.alloc(n), den = rig.rows.alloc(d);
    VecSlice quot = rig.rows.alloc(n);
    VecSlice rwork = rig.rows.alloc(n + d);
    VecSlice twork = rig.rows.alloc(d + 1), dwork = rig.rows.alloc(d + 1);

    auto nv = rng.bitVector(kLanes, n);
    std::vector<uint64_t> dv(kLanes);
    for (auto &x : dv)
        x = rng.uniformInt(1, (int64_t(1) << d) - 1); // no div-by-zero
    storeVector(rig.arr, num, nv);
    storeVector(rig.arr, den, dv);

    uint64_t cycles =
        divide(rig.arr, num, den, quot, rwork, twork, dwork);
    EXPECT_EQ(cycles, implDivCycles(n, d));

    auto q = loadVector(rig.arr, quot);
    auto r = loadVector(rig.arr, rwork.slice(0, d));
    for (unsigned i = 0; i < kLanes; ++i) {
        EXPECT_EQ(q[i], nv[i] / dv[i])
            << nv[i] << " / " << dv[i] << " lane " << i;
        EXPECT_EQ(r[i], nv[i] % dv[i])
            << nv[i] << " % " << dv[i] << " lane " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DivideProperty,
    ::testing::Values(std::make_tuple(4u, 4u), std::make_tuple(8u, 4u),
                      std::make_tuple(8u, 8u), std::make_tuple(16u, 4u),
                      std::make_tuple(12u, 6u),
                      std::make_tuple(16u, 8u)));

TEST(Divide, ByOneAndBySelf)
{
    Rig rig;
    VecSlice num = rig.rows.alloc(8), den = rig.rows.alloc(8);
    VecSlice quot = rig.rows.alloc(8);
    VecSlice rwork = rig.rows.alloc(16);
    VecSlice twork = rig.rows.alloc(9), dwork = rig.rows.alloc(9);

    storeVector(rig.arr, num, {200, 200});
    storeVector(rig.arr, den, {1, 200});
    divide(rig.arr, num, den, quot, rwork, twork, dwork);
    auto q = loadVector(rig.arr, quot);
    EXPECT_EQ(q[0], 200u);
    EXPECT_EQ(q[1], 1u);
}

} // namespace
