/** @file Tests for equality/search, batch norm, and zero-skip MAC. */

#include <gtest/gtest.h>

#include "bitserial/extensions.hh"
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

TEST(EqualCompare, TagMarksEqualLanes)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice s = rig.rows.alloc(1);
    storeVector(rig.arr, a, {5, 9, 0, 255, 128});
    storeVector(rig.arr, b, {5, 8, 0, 255, 129});
    uint64_t cycles = equalCompare(rig.arr, a, b, s);
    EXPECT_EQ(cycles, 8u);
    EXPECT_TRUE(rig.arr.tag().get(0));
    EXPECT_FALSE(rig.arr.tag().get(1));
    EXPECT_TRUE(rig.arr.tag().get(2));
    EXPECT_TRUE(rig.arr.tag().get(3));
    EXPECT_FALSE(rig.arr.tag().get(4));
}

TEST(EqualCompare, LanesBeyondDataCompareZeroEqual)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(4), b = rig.rows.alloc(4);
    VecSlice s = rig.rows.alloc(1);
    storeVector(rig.arr, a, {1});
    storeVector(rig.arr, b, {2});
    equalCompare(rig.arr, a, b, s);
    // Both padded to zero beyond the stored values -> equal.
    EXPECT_TRUE(rig.arr.tag().get(10));
}

TEST(SearchKey, AssociativeMatch)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(8);
    storeVector(rig.arr, v, {42, 17, 42, 0, 255, 42});
    uint64_t cycles = searchKey(rig.arr, v, 42);
    EXPECT_EQ(cycles, 8u);
    EXPECT_EQ(matchCount(rig.arr), 3u);
    EXPECT_TRUE(rig.arr.tag().get(0));
    EXPECT_FALSE(rig.arr.tag().get(1));
    EXPECT_TRUE(rig.arr.tag().get(2));
    EXPECT_TRUE(rig.arr.tag().get(5));
}

TEST(SearchKey, ZeroKeyMatchesEmptyLanes)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(8);
    storeVector(rig.arr, v, {1, 0, 2});
    searchKey(rig.arr, v, 0);
    // Lane 1 plus every unwritten lane.
    EXPECT_EQ(matchCount(rig.arr), kLanes - 2);
}

TEST(SearchKey, PropertyAgainstScan)
{
    nc::Rng rng(606);
    Rig rig;
    VecSlice v = rig.rows.alloc(8);
    auto vals = rng.bitVector(kLanes, 8);
    storeVector(rig.arr, v, vals);
    for (int t = 0; t < 20; ++t) {
        uint64_t key = rng.uniformBits(8);
        searchKey(rig.arr, v, key);
        unsigned want = 0;
        for (unsigned i = 0; i < kLanes; ++i)
            want += vals[i] == key;
        EXPECT_EQ(matchCount(rig.arr), want) << "key " << key;
    }
}

TEST(SearchKeyDeath, KeyWiderThanSlice)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(4);
    EXPECT_DEATH(searchKey(rig.arr, v, 16), "exceeds");
}

TEST(BatchNorm, ScalesShiftsAdds)
{
    // y = ((x * gamma) >> shift) + beta, per lane (per channel).
    Rig rig;
    VecSlice x = rig.rows.alloc(8);
    VecSlice gamma = rig.rows.alloc(8), beta = rig.rows.alloc(8);
    VecSlice prod = rig.rows.alloc(16);
    storeVector(rig.arr, x, {100, 50, 255});
    storeVector(rig.arr, gamma, {128, 64, 255});
    storeVector(rig.arr, beta, {1, 2, 0});

    uint64_t cycles =
        batchNorm(rig.arr, x, gamma, beta, 7, prod, rig.zrow);
    EXPECT_EQ(cycles, implBatchNormCycles(8, 8));
    auto y = loadVector(rig.arr, x);
    EXPECT_EQ(y[0], ((100u * 128u) >> 7) + 1);
    EXPECT_EQ(y[1], ((50u * 64u) >> 7) + 2);
    EXPECT_EQ(y[2], nc::truncate(((255u * 255u) >> 7) + 0, 8));
}

TEST(BatchNorm, PropertyRandomChannels)
{
    nc::Rng rng(31);
    Rig rig;
    VecSlice x = rig.rows.alloc(8);
    VecSlice gamma = rig.rows.alloc(8), beta = rig.rows.alloc(8);
    VecSlice prod = rig.rows.alloc(16);

    auto xv = rng.bitVector(kLanes, 8);
    auto gv = rng.bitVector(kLanes, 8);
    auto bv = rng.bitVector(kLanes, 8);
    storeVector(rig.arr, x, xv);
    storeVector(rig.arr, gamma, gv);
    storeVector(rig.arr, beta, bv);
    batchNorm(rig.arr, x, gamma, beta, 8, prod, rig.zrow);

    auto y = loadVector(rig.arr, x);
    for (unsigned i = 0; i < kLanes; ++i) {
        uint64_t want =
            nc::truncate(((xv[i] * gv[i]) >> 8) + bv[i], 8);
        EXPECT_EQ(y[i], want) << "lane " << i;
    }
}

TEST(MacSkipZero, HitCostsOneCycle)
{
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice acc = rig.rows.alloc(24), scratch = rig.rows.alloc(16);
    storeVector(rig.arr, a, {10, 20});
    storeVector(rig.arr, acc, {7, 8});
    // b is all zero across every lane.
    uint64_t cycles =
        macScratchSkipZero(rig.arr, a, b, acc, scratch, rig.zrow);
    EXPECT_EQ(cycles, implMacSkipHitCycles());
    auto r = loadVector(rig.arr, acc);
    EXPECT_EQ(r[0], 7u);
    EXPECT_EQ(r[1], 8u);
}

TEST(MacSkipZero, MissMatchesMacScratchPlusDetect)
{
    nc::Rng rng(4);
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice acc = rig.rows.alloc(24), scratch = rig.rows.alloc(16);
    auto av = rng.bitVector(kLanes, 8);
    auto bv = rng.bitVector(kLanes, 8);
    bv[3] = 1; // guarantee non-zero somewhere
    storeVector(rig.arr, a, av);
    storeVector(rig.arr, b, bv);
    zero(rig.arr, acc);

    uint64_t cycles =
        macScratchSkipZero(rig.arr, a, b, acc, scratch, rig.zrow);
    EXPECT_EQ(cycles, implMacSkipMissCycles(8, 24));
    auto r = loadVector(rig.arr, acc);
    for (unsigned i = 0; i < kLanes; ++i)
        EXPECT_EQ(r[i], av[i] * bv[i]) << "lane " << i;
}

TEST(MacSkipZero, SingleNonZeroLaneForcesFullCost)
{
    // SIMD semantics: one live lane means every lane pays.
    Rig rig;
    VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    VecSlice acc = rig.rows.alloc(24), scratch = rig.rows.alloc(16);
    std::vector<uint64_t> bv(kLanes, 0);
    bv[kLanes - 1] = 1;
    storeVector(rig.arr, a, std::vector<uint64_t>(kLanes, 3));
    storeVector(rig.arr, b, bv);
    zero(rig.arr, acc);
    uint64_t cycles =
        macScratchSkipZero(rig.arr, a, b, acc, scratch, rig.zrow);
    EXPECT_EQ(cycles, implMacSkipMissCycles(8, 24));
}

TEST(Saturate, ClampsOverflowingLanes)
{
    Rig rig;
    VecSlice v = rig.rows.alloc(16);
    storeVector(rig.arr, v, {255, 256, 1000, 37, 65535});
    uint64_t cycles = saturate(rig.arr, v, 8);
    EXPECT_EQ(cycles, implSaturateCycles(16, 8));
    auto low = loadVector(rig.arr, v.slice(0, 8));
    EXPECT_EQ(low[0], 255u); // fits exactly
    EXPECT_EQ(low[1], 255u); // overflowed
    EXPECT_EQ(low[2], 255u);
    EXPECT_EQ(low[3], 37u);  // untouched
    EXPECT_EQ(low[4], 255u);
}

TEST(Saturate, PropertyMatchesMin)
{
    nc::Rng rng(77);
    Rig rig;
    VecSlice v = rig.rows.alloc(20);
    auto vals = rng.bitVector(kLanes, 20);
    storeVector(rig.arr, v, vals);
    saturate(rig.arr, v, 8);
    auto low = loadVector(rig.arr, v.slice(0, 8));
    for (unsigned i = 0; i < kLanes; ++i)
        EXPECT_EQ(low[i], std::min<uint64_t>(vals[i], 255))
            << "lane " << i;
}

TEST(TagMicroOps, TagOrFoldsOverflowBits)
{
    nc::sram::Array arr(8, 4);
    arr.poke(0, 1, true);
    arr.poke(1, 2, true);
    arr.tagSet(false);
    arr.opTagOr(0);
    arr.opTagOr(1);
    EXPECT_TRUE(arr.tag().get(1));
    EXPECT_TRUE(arr.tag().get(2));
    EXPECT_EQ(arr.tag().popcount(), 2u);
}

TEST(TagMicroOps, AndInvAndXnor)
{
    Array arr(8, 4);
    // row0: 0 1 0 1 ; row1: 0 0 1 1
    arr.poke(0, 1, true);
    arr.poke(0, 3, true);
    arr.poke(1, 2, true);
    arr.poke(1, 3, true);

    arr.tagSet(true);
    arr.opTagAndInv(0); // lanes where row0 == 0 -> 0, 2
    EXPECT_TRUE(arr.tag().get(0) && arr.tag().get(2));
    EXPECT_EQ(arr.tag().popcount(), 2u);

    arr.tagSet(true);
    arr.opTagAndXnor(0, 1); // rows equal -> lanes 0 and 3
    EXPECT_TRUE(arr.tag().get(0) && arr.tag().get(3));
    EXPECT_EQ(arr.tag().popcount(), 2u);
}

} // namespace
