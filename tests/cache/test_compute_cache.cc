/** @file Tests for the lazy compute-cache container. */

#include <gtest/gtest.h>

#include "cache/compute_cache.hh"

namespace
{

using nc::cache::ComputeCache;
using nc::cache::Geometry;

TEST(ComputeCache, LazyMaterialization)
{
    ComputeCache cc;
    EXPECT_EQ(cc.materializedCount(), 0u);
    const uint64_t flat = 27; // slice 0, way 1, bank 2, array 3
    EXPECT_EQ(cc.peekArray(flat), nullptr);
    auto &arr = cc.array(flat);
    EXPECT_EQ(cc.peekArray(flat), &arr);
    EXPECT_EQ(cc.materializedCount(), 1u);
    // Same index returns the same array.
    arr.poke(0, 0, true);
    EXPECT_TRUE(cc.array(flat).peek(0, 0));
    EXPECT_EQ(cc.materializedCount(), 1u);
}

TEST(ComputeCache, LockstepIsMaxOverArrays)
{
    ComputeCache cc;
    auto &a0 = cc.array(0);
    auto &a1 = cc.array(320); // first array of slice 1
    a0.opZero(0);
    a0.opZero(1);
    a1.opZero(0);
    EXPECT_EQ(cc.lockstepCycles(), 2u);
    EXPECT_EQ(cc.totalComputeCycles(), 3u);
    cc.resetCycles();
    EXPECT_EQ(cc.lockstepCycles(), 0u);
}

TEST(ComputeCache, AccessCyclesAggregated)
{
    ComputeCache cc;
    auto &a = cc.array(0);
    a.readRow(0);
    a.writeRow(0, nc::sram::BitRow(cc.geometry().arrayCols));
    EXPECT_EQ(cc.totalAccessCycles(), 2u);
}

TEST(ComputeCacheDeath, IndexOutOfRange)
{
    ComputeCache cc;
    EXPECT_DEATH(cc.array(cc.geometry().totalArrays()), "out of range");

    // A retirement shrinks the logical space: the last physical
    // index is no longer addressable, by any lookup.
    ComputeCache faulted;
    nc::sram::faults::Config cfg;
    cfg.killArrays = {7};
    faulted.configureFaults(cfg);
    faulted.bistScanAndRemap();
    const uint64_t past = faulted.usableArrays();
    ASSERT_EQ(past, faulted.geometry().totalArrays() - 1);
    EXPECT_DEATH(faulted.array(past), "out of range");
    EXPECT_DEATH((void)faulted.peekArray(past), "out of range");
    EXPECT_DEATH((void)faulted.physicalOf(past), "out of range");
}

} // namespace
