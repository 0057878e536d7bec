/** @file Unit tests for the compute SRAM array micro-ops. */

#include <gtest/gtest.h>

#include "sram/array.hh"

namespace
{

using nc::sram::Array;
using nc::sram::BitRow;

/** Put a pattern on two rows: lane-wise all four A/B combinations. */
class ArrayCompute : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // lanes:      0  1  2  3
        // row A bits: 0  0  1  1
        // row B bits: 0  1  0  1
        arr.poke(0, 2, true);
        arr.poke(0, 3, true);
        arr.poke(1, 1, true);
        arr.poke(1, 3, true);
    }

    Array arr{16, 4};
};

TEST_F(ArrayCompute, FullAdderCycle)
{
    arr.carrySet(false);
    arr.opAdd(0, 1, 2);
    // sum = A^B^0: 0 1 1 0 ; carry = A&B: 0 0 0 1
    EXPECT_FALSE(arr.peek(2, 0));
    EXPECT_TRUE(arr.peek(2, 1) && arr.peek(2, 2));
    EXPECT_FALSE(arr.peek(2, 3));
    EXPECT_FALSE(arr.carry().get(0));
    EXPECT_TRUE(arr.carry().get(3));
}

TEST_F(ArrayCompute, FullAdderWithCarryIn)
{
    arr.carrySet(true);
    arr.opAdd(0, 1, 2);
    // sum = A^B^1: 1 0 0 1 ; carry = A&B | (A^B): 0 1 1 1
    EXPECT_TRUE(arr.peek(2, 0) && arr.peek(2, 3));
    EXPECT_FALSE(arr.peek(2, 1) || arr.peek(2, 2));
    EXPECT_FALSE(arr.carry().get(0));
    EXPECT_TRUE(arr.carry().get(1) && arr.carry().get(2) &&
                arr.carry().get(3));
}

TEST_F(ArrayCompute, CopyAndCopyInv)
{
    arr.opCopy(0, 5);
    arr.opCopyInv(0, 6);
    for (unsigned lane = 0; lane < 4; ++lane) {
        EXPECT_EQ(arr.peek(5, lane), arr.peek(0, lane));
        EXPECT_EQ(arr.peek(6, lane), !arr.peek(0, lane));
    }
}

TEST_F(ArrayCompute, ZeroAndOnes)
{
    arr.opOnes(7);
    EXPECT_EQ(arr.rowRef(7).popcount(), 4u);
    arr.opZero(7);
    EXPECT_EQ(arr.rowRef(7).popcount(), 0u);
}

TEST_F(ArrayCompute, TagPredicationGatesWriteback)
{
    // Tag = row B (lanes 1 and 3 enabled).
    arr.opLoadTag(1);
    arr.opOnes(8, /*pred=*/true);
    EXPECT_FALSE(arr.peek(8, 0));
    EXPECT_TRUE(arr.peek(8, 1));
    EXPECT_FALSE(arr.peek(8, 2));
    EXPECT_TRUE(arr.peek(8, 3));
}

TEST_F(ArrayCompute, TagInvAndTagAnd)
{
    arr.tagSet(true);
    arr.opTagAndInv(1); // AND with NOT B: lanes 0, 2
    EXPECT_TRUE(arr.tag().get(0) && arr.tag().get(2));
    EXPECT_EQ(arr.tag().popcount(), 2u);
    arr.opTagAnd(0); // AND with A: lane 2 only
    EXPECT_FALSE(arr.tag().get(0));
    EXPECT_TRUE(arr.tag().get(2));
    EXPECT_EQ(arr.tag().popcount(), 1u);
}

TEST_F(ArrayCompute, TagFromCarry)
{
    arr.carrySet(false);
    arr.opAdd(0, 1, 2); // carry = 0 0 0 1
    arr.opLoadTagFromCarry();
    EXPECT_EQ(arr.tag().popcount(), 1u);
    EXPECT_TRUE(arr.tag().get(3));
    arr.opLoadTagFromCarry(/*invert=*/true);
    EXPECT_EQ(arr.tag().popcount(), 3u);
    EXPECT_FALSE(arr.tag().get(3));
}

TEST_F(ArrayCompute, StoreTagAndCarry)
{
    arr.opLoadTag(0);
    arr.opStoreTag(9);
    EXPECT_TRUE(arr.rowRef(9) == arr.rowRef(0));
    arr.carrySet(true);
    arr.opStoreCarry(10);
    EXPECT_EQ(arr.rowRef(10).popcount(), 4u);
}

TEST_F(ArrayCompute, LaneShiftMovesTowardLowerLanes)
{
    arr.opLaneShift(1, 11, 2); // B = 0 1 0 1 -> 0 1 0 0
    EXPECT_TRUE(arr.peek(11, 1));
    EXPECT_EQ(arr.rowRef(11).popcount(), 1u);
}

TEST(ArrayCycles, ComputeAndAccessCounted)
{
    Array arr(8, 4);
    EXPECT_EQ(arr.computeCycles(), 0u);
    arr.opZero(0);
    arr.opAdd(0, 1, 2);
    arr.opLoadTag(0);
    EXPECT_EQ(arr.computeCycles(), 3u);
    arr.opLaneShift(0, 1, 1); // default 2 cycles (sense + drive)
    EXPECT_EQ(arr.computeCycles(), 5u);

    arr.readRow(0);
    arr.writeRow(1, BitRow(4));
    EXPECT_EQ(arr.accessCycles(), 2u);

    arr.resetCycles();
    EXPECT_EQ(arr.computeCycles(), 0u);
    EXPECT_EQ(arr.accessCycles(), 0u);
}

TEST(ArrayCycles, CarryAndTagPresetsAreFree)
{
    Array arr(8, 4);
    arr.carrySet(true);
    arr.tagSet(false);
    EXPECT_EQ(arr.computeCycles(), 0u);
}

TEST(ArrayGeometry, DefaultIs8KB)
{
    Array arr;
    EXPECT_EQ(arr.rows(), 256u);
    EXPECT_EQ(arr.cols(), 256u);
    EXPECT_EQ(arr.sizeBytes(), 8192u);
}

TEST(ArrayDeath, SameRowDualActivation)
{
    Array arr(8, 4);
    EXPECT_DEATH(arr.opAdd(3, 3, 4), "dual activation");
}

TEST(ArrayDeath, RowOutOfRange)
{
    if (!nc::kDebugAsserts)
        GTEST_SKIP() << "row-bounds asserts compile out in Release";
    Array arr(8, 4);
    EXPECT_DEATH(arr.opCopy(8, 0), "row");
    EXPECT_DEATH(arr.readRow(9), "row");
}

TEST(ArrayDeath, WriteWrongWidth)
{
    Array arr(8, 4);
    EXPECT_DEATH(arr.writeRow(0, BitRow(5)), "width");
}

} // namespace
