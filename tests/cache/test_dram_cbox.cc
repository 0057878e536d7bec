/** @file Tests for the DRAM channel and C-BOX models. */

#include <gtest/gtest.h>

#include "cache/cbox.hh"
#include "cache/dram.hh"

namespace
{

using nc::cache::CBox;
using nc::cache::DramModel;

TEST(Dram, TransferTimeLinearPlusLatency)
{
    DramModel d;
    EXPECT_DOUBLE_EQ(d.transferPs(0), 0.0);
    double one = d.transferPs(1u << 20);
    double two = d.transferPs(2u << 20);
    // Doubling bytes roughly doubles time minus the fixed latency.
    EXPECT_NEAR(two - one, one - d.streamLatencyPs, 1.0);
}

TEST(Dram, CalibratedBandwidthLoadsInceptionFiltersIn2ms)
{
    // ~22.7 MiB of weights at the calibrated effective bandwidth is
    // about 2.1-2.2 ms: the 46% filter-load share of Figure 14.
    DramModel d;
    double ms = d.transferPs(uint64_t(22.7 * (1 << 20))) * 1e-9;
    EXPECT_GT(ms, 1.9);
    EXPECT_LT(ms, 2.4);
}

TEST(CBox, TransposeThroughputScalesWithTmus)
{
    CBox one;
    one.tmus = 1;
    CBox two;
    two.tmus = 2;
    uint64_t bytes = 1 << 16;
    EXPECT_LT(two.transposePs(bytes), one.transposePs(bytes));
}

TEST(CBox, FsmAreaMatchesPaper)
{
    // "The area of one FSM is estimated to be 204 um^2, across 14
    // slices which sums to 0.23 mm^2."
    CBox cbox;
    EXPECT_NEAR(cbox.fsmAreaMm2(14), 0.23, 0.01);
}

TEST(CBox, TransposeOfZeroBytesIsFree)
{
    CBox cbox;
    EXPECT_DOUBLE_EQ(cbox.transposePs(0), 0.0);
}

} // namespace
