/**
 * @file
 * Detection and repair plumbing: HealthMap bookkeeping, the BIST
 * march test, and the ComputeCache logical→physical remap (compile
 * scan, surgical substitution, compaction).
 */

#include <gtest/gtest.h>

#include "cache/compute_cache.hh"
#include "cache/health.hh"

namespace
{

using namespace nc;
using namespace nc::cache;

/** 8 arrays of 16x32 — every remap shape fits in one glance. */
Geometry
tinyGeom()
{
    Geometry g;
    g.name = "tiny";
    g.slices = 1;
    g.waysPerSlice = 2;
    g.banksPerWay = 2;
    g.subarraysPerBank = 1;
    g.arraysPerSubarray = 2;
    g.arrayRows = 16;
    g.arrayCols = 32;
    return g;
}

TEST(HealthMap, RetireIsIdempotentAndKeepsTheFirstReason)
{
    HealthMap h(8);
    EXPECT_TRUE(h.healthy(3));
    EXPECT_EQ(h.retiredCount(), 0u);
    EXPECT_EQ(h.summary(), "none");

    h.retire(3, "first diagnosis");
    h.retire(3, "second opinion");
    EXPECT_FALSE(h.healthy(3));
    EXPECT_EQ(h.retiredCount(), 1u);
    ASSERT_NE(h.reason(3), nullptr);
    EXPECT_EQ(*h.reason(3), "first diagnosis");
    EXPECT_EQ(h.reason(2), nullptr);

    h.retire(1, "also dead");
    auto dead = h.retired();
    ASSERT_EQ(dead.size(), 2u);
    EXPECT_EQ(dead[0], 1u);
    EXPECT_EQ(dead[1], 3u);
    EXPECT_NE(h.summary().find("array 1"), std::string::npos);
    EXPECT_NE(h.summary().find("array 3"), std::string::npos);
    EXPECT_NE(h.summary().find("first diagnosis"),
              std::string::npos);

    // Out-of-range indices are simply not healthy.
    EXPECT_FALSE(h.healthy(8));
}

TEST(Bist, MarchPassesIdealCellsAndCatchesStuckAndDead)
{
    sram::Array clean(16, 32);
    EXPECT_TRUE(bistMarch(clean));

    sram::faults::Config cfg;
    sram::faults::Registry reg(cfg, 2, 16, 32);
    reg.addStuck(0, 3, 5, true);
    reg.killArray(1);

    sram::Array stuck(16, 32);
    stuck.setFaults(reg.recordFor(0));
    EXPECT_FALSE(bistMarch(stuck)); // checkerboard hits both values

    sram::Array dead(16, 32);
    dead.setFaults(reg.recordFor(1));
    EXPECT_FALSE(bistMarch(dead));
}

TEST(Bist, ScanRetiresCasualtiesAndCompactsTheRemap)
{
    ComputeCache cc(tinyGeom());
    EXPECT_EQ(cc.usableArrays(), 8u); // unconfigured: identity
    EXPECT_EQ(cc.physicalOf(5), 5u);

    sram::faults::Config cfg;
    cfg.killArrays = {0, 5};
    cc.configureFaults(cfg);
    EXPECT_EQ(cc.bistScanAndRemap(), 2u);
    EXPECT_EQ(cc.usableArrays(), 6u);

    // Survivors compact ascending: 1,2,3,4,6,7.
    EXPECT_EQ(cc.physicalOf(0), 1u);
    EXPECT_EQ(cc.physicalOf(3), 4u);
    EXPECT_EQ(cc.physicalOf(4), 6u);
    EXPECT_EQ(cc.physicalOf(5), 7u);

    EXPECT_FALSE(cc.health()->healthy(0));
    EXPECT_FALSE(cc.health()->healthy(5));
    EXPECT_TRUE(cc.health()->healthy(1));
    EXPECT_NE(cc.health()->summary().find("bist"),
              std::string::npos);
}

TEST(Health, RetireAndSubstituteRebindsAndWipesTheSpare)
{
    ComputeCache cc(tinyGeom());
    sram::faults::Config cfg;
    cfg.killArrays = {7}; // arm faults; kill only the tail
    cc.configureFaults(cfg);
    cc.bistScanAndRemap(); // survivors 0..6

    cc.array(2).poke(0, 0, true); // the future casualty
    cc.array(6).poke(1, 1, true); // the future spare

    uint64_t phys = cc.retireAndSubstitute(2, "test: synthetic");
    EXPECT_EQ(phys, 6u);
    EXPECT_EQ(cc.usableArrays(), 6u);
    EXPECT_EQ(cc.physicalOf(2), 6u); // spare behind the same logical

    // The substitute starts clean for its new life.
    EXPECT_FALSE(cc.array(2).peek(1, 1));
    EXPECT_FALSE(cc.array(2).peek(0, 0));

    // The reason lands on the casualty's physical index.
    ASSERT_NE(cc.health()->reason(2), nullptr);
    EXPECT_EQ(*cc.health()->reason(2), "test: synthetic");
}

TEST(Health, RetireCompactReshufflesTheWholeLogicalSpace)
{
    ComputeCache cc(tinyGeom());
    sram::faults::Config cfg;
    cfg.killArrays = {1};
    cc.configureFaults(cfg);
    cc.bistScanAndRemap(); // survivors 0,2,3,4,5,6,7
    EXPECT_EQ(cc.physicalOf(1), 2u);

    cc.array(3).poke(0, 0, true); // physical 4

    cc.retireCompact(1, "test: compact"); // retires physical 2
    EXPECT_EQ(cc.usableArrays(), 6u);
    // Survivors ascend again: 0,3,4,5,6,7 — everything above the
    // casualty shifted, which is why callers must re-place the plan.
    EXPECT_EQ(cc.physicalOf(0), 0u);
    EXPECT_EQ(cc.physicalOf(1), 3u);
    EXPECT_EQ(cc.physicalOf(2), 4u);

    // Materialized survivors were wiped for re-placement.
    EXPECT_FALSE(cc.array(2).peek(0, 0));
    ASSERT_NE(cc.health()->reason(2), nullptr);
    EXPECT_EQ(*cc.health()->reason(2), "test: compact");
}

} // namespace
