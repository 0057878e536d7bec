/** @file Tests for the closed-form cycle formulas (paper §III-B/C). */

#include <gtest/gtest.h>

#include "bitserial/cost.hh"

namespace
{

using namespace nc::bitserial;

TEST(PaperFormulas, AsPublished)
{
    // §III-B: "Addition takes n + 1".
    EXPECT_EQ(paperAddCycles(8), 9u);
    EXPECT_EQ(paperAddCycles(32), 33u);
    // §III-C: "it takes n^2 + 5n - 2 cycles to finish an n-bit
    // multiplication".
    EXPECT_EQ(paperMulCycles(8), 102u);
    EXPECT_EQ(paperMulCycles(16), 334u);
    // "Division ... takes 1.5n^2 + 5.5n cycles".
    EXPECT_DOUBLE_EQ(paperDivCycles(8), 140.0);
    EXPECT_DOUBLE_EQ(paperDivCycles(4), 46.0);
}

TEST(ImplFormulas, ClosedFormsAreInternallyConsistent)
{
    // Spot values derived in the headers.
    EXPECT_EQ(implCopyCycles(8), 8u);
    EXPECT_EQ(implAddCycles(8, true), 9u);
    EXPECT_EQ(implSubCycles(8, false), 16u);
    EXPECT_EQ(implMulCycles(8), 96u);
    EXPECT_EQ(implMulCycles(4, 2), 6u + 2u * 6u);
    EXPECT_EQ(implMacScratchCycles(8, 24), 120u);
    EXPECT_EQ(implMaxCycles(8), 25u);
    EXPECT_EQ(implReluCycles(8), 9u);
    EXPECT_EQ(implCompareCycles(8), 17u);
}

TEST(ImplFormulas, ReductionGrowsOneBitPerStep)
{
    // 2 lanes: one step at width w0 -> 3*w0 + 1 with 2-cycle moves.
    EXPECT_EQ(implReduceSumCycles(8, 2, 2), 25u);
    // 4 lanes: widths 8 then 9.
    EXPECT_EQ(implReduceSumCycles(8, 4, 2), 25u + 28u);
    // 1 lane: nothing to do.
    EXPECT_EQ(implReduceSumCycles(8, 1, 2), 0u);
    // Reduction over 128 channels of 24-bit partials (the common
    // Inception case) stays in the hundreds of cycles.
    uint64_t r = implReduceSumCycles(24, 128, 2);
    EXPECT_GT(r, 400u);
    EXPECT_LT(r, 700u);
}

TEST(ImplFormulas, ReduceMaxScalesWithSteps)
{
    EXPECT_EQ(implReduceMaxCycles(8, 2, 2), 16u + 25u);
    EXPECT_EQ(implReduceMaxCycles(8, 4, 2), 2 * (16u + 25u));
}

TEST(ImplFormulas, DivisionQuadratic)
{
    // (n + d) init + (d + 1) invert + n * (2d + 4) loop.
    EXPECT_EQ(implDivCycles(8, 4), 12u + 5u + 8u * 12u);
    EXPECT_EQ(implDivCycles(4, 4), 8u + 5u + 4u * 12u);
}

TEST(PaperCrossCheck, OurSchedulesLandNearPublishedCosts)
{
    // The paper's formulas include its own peripheral pipeline
    // details; ours differ by bounded constants, never asymptotics.
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
        EXPECT_EQ(implAddCycles(n, true), paperAddCycles(n));
        double mul_ratio =
            double(implMulCycles(n)) / double(paperMulCycles(n));
        EXPECT_GT(mul_ratio, 0.7) << "n=" << n;
        EXPECT_LT(mul_ratio, 1.2) << "n=" << n;
        double div_ratio =
            double(implDivCycles(n, n)) / paperDivCycles(n);
        EXPECT_GT(div_ratio, 0.8) << "n=" << n;
        EXPECT_LT(div_ratio, 1.8) << "n=" << n;
    }
}

TEST(AluConfig, DefaultMoveCost)
{
    AluConfig cfg;
    EXPECT_EQ(cfg.moveCyclesPerRow, 2u);
}

} // namespace
