/** @file Tests for transposed weight placement (§IV-C). */

#include <set>

#include <gtest/gtest.h>

#include "mapping/weight_layout.hh"

namespace
{

using namespace nc::mapping;
using nc::cache::Geometry;
using nc::dnn::conv;

WeightLayout
layoutFor(const nc::dnn::ConvOp &op, const Geometry &g)
{
    return WeightLayout(op, planConv(op, g), g);
}

TEST(WeightLayout, PlainConvChannelsWalkLanes)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 147, 147, 32, 3, 3, 64).conv;
    WeightLayout wl = layoutFor(op, g);

    // Channel c of filter byte k, batch 0: lane c, row 8k.
    for (unsigned c : {0u, 7u, 31u})
        for (unsigned k : {0u, 4u, 8u}) {
            WeightHome h = wl.homeOf(0, c, k);
            EXPECT_EQ(h.lane, c);
            EXPECT_EQ(h.row, 8 * k);
            EXPECT_EQ(h.coord.way, 0u);
        }
    // Batch 8 (convsPerArray = 8) moves to the next array.
    WeightHome h8 = wl.homeOf(8, 0, 0);
    WeightHome h0 = wl.homeOf(0, 0, 0);
    EXPECT_NE(h8.coord, h0.coord);
    // Batch 1 shares array 0 on the next lane group.
    WeightHome h1 = wl.homeOf(1, 0, 0);
    EXPECT_EQ(h1.coord, h0.coord);
    EXPECT_EQ(h1.lane, 32u);
}

TEST(WeightLayout, SplitFiltersSpreadAcrossLanes)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 35, 35, 48, 5, 5, 64).conv; // split x3
    WeightLayout wl = layoutFor(op, g);

    // Filter byte 0 and byte 9 of the same channel live on adjacent
    // lanes (split boundary at effRS = 9).
    WeightHome a = wl.homeOf(0, 0, 0);
    WeightHome b = wl.homeOf(0, 0, 9);
    EXPECT_EQ(a.lane + 1, b.lane);
    EXPECT_EQ(b.row, 0u);
    // Byte 8 stays on the first lane, top of the band.
    WeightHome c8 = wl.homeOf(0, 0, 8);
    EXPECT_EQ(c8.lane, a.lane);
    EXPECT_EQ(c8.row, 64u);
}

TEST(WeightLayout, PackedPointwiseStacksChannels)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 8, 8, 2048, 1, 1, 320).conv; // pack x16
    WeightLayout wl = layoutFor(op, g);

    // Channels 0..15 share lane 0, stacked 8 rows apart.
    for (unsigned c : {0u, 1u, 15u}) {
        WeightHome h = wl.homeOf(0, c, 0);
        EXPECT_EQ(h.lane, 0u);
        EXPECT_EQ(h.row, 8 * c);
    }
    EXPECT_EQ(wl.homeOf(0, 16, 0).lane, 1u);
}

TEST(WeightLayout, HomesAreUniquePerArrayRowLane)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl = layoutFor(op, g);

    std::set<std::tuple<unsigned, unsigned, unsigned, unsigned,
                        unsigned, unsigned>>
        seen;
    for (unsigned m = 0; m < 4; ++m)
        for (unsigned c = 0; c < 8; ++c)
            for (unsigned k = 0; k < 9; ++k) {
                WeightHome h = wl.homeOf(m, c, k);
                auto key = std::tuple(h.coord.slice, h.coord.way,
                                      h.coord.bank, h.coord.array,
                                      h.row, h.lane);
                EXPECT_TRUE(seen.insert(key).second)
                    << m << "," << c << "," << k;
            }
    EXPECT_EQ(seen.size(), size_t(4) * 8 * 9);
}

TEST(WeightLayout, HomesRespectTheFigure10Band)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 35, 35, 48, 5, 5, 64).conv;
    auto plan = planConv(op, g);
    WeightLayout wl(op, plan, g);
    for (unsigned m : {0u, 63u})
        for (unsigned c : {0u, 47u})
            for (unsigned k : {0u, 24u}) {
                WeightHome h = wl.homeOf(m, c, k);
                EXPECT_LT(h.row, plan.filterRows);
                EXPECT_LT(h.lane, g.arrayCols);
                EXPECT_LT(h.coord.way, g.computeWays());
            }
}

TEST(WeightLayout, StreamingOrderIsMonotone)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl = layoutFor(op, g);
    auto order = wl.streamingOrder();
    ASSERT_EQ(order.size(), size_t(4) * 8 * 9);
    for (size_t i = 1; i < order.size(); ++i) {
        const auto &p = order[i - 1];
        const auto &q = order[i];
        auto key = [&](const WeightHome &h) {
            return std::tuple(h.coord.way, h.coord.bank,
                              h.coord.array, h.row, h.lane);
        };
        EXPECT_LE(key(p), key(q)) << "position " << i;
    }
}

TEST(WeightLayout, MultiArrayConvSpansArrays)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 17, 17, 768, 7, 1, 192).conv; // 1024 lanes
    WeightLayout wl = layoutFor(op, g);
    WeightHome first = wl.homeOf(0, 0, 0);
    WeightHome far = wl.homeOf(0, 500, 0);
    EXPECT_NE(first.coord, far.coord);
    EXPECT_LT(far.lane, g.arrayCols);
}

TEST(WeightLayout, LaneTableAgreesWithHomes)
{
    // The executor's lane table and homeOf state the §IV-A rule
    // independently. Where the analytic and functional plans pick the
    // same transform, every filter element of batch 0 must sit on the
    // same lane and MAC slot in both.
    Geometry g = Geometry::xeonE5_35MB();
    struct Case
    {
        const char *name;
        unsigned c, r, s;
    };
    for (const Case &cs : {Case{"untransformed", 64, 3, 3},
                           Case{"split", 8, 5, 5},
                           Case{"packed", 300, 1, 1}}) {
        SCOPED_TRACE(cs.name);
        auto op = conv(cs.name, 8, 8, cs.c, cs.r, cs.s, 4).conv;
        ConvPlan plan = planConv(op, g);
        FunctionalConvPlan fp = planFunctionalConv(op, g);
        ASSERT_EQ(plan.ft.packFactor, fp.packFactor);
        ASSERT_EQ(plan.ft.splitFactor, fp.splitFactor);
        ASSERT_EQ(plan.ft.effRS, fp.effRS);
        ASSERT_EQ(fp.chunks, 1u);
        WeightLayout wl(op, plan, g);
        ConvLaneTable table = makeConvLaneTable(fp, cs.r, cs.s);
        ASSERT_EQ(table.slots.size(), fp.effRS);

        std::set<std::pair<unsigned, unsigned>> seen; // (channel, k)
        for (unsigned slot = 0; slot < fp.effRS; ++slot) {
            for (const LaneRun &run : table.slots[slot]) {
                for (unsigned i = 0; i < run.count; ++i) {
                    unsigned lane = run.lane0 + i * run.laneStride;
                    unsigned ch = run.ch0 + i * run.chStride;
                    unsigned k = run.dy * cs.s + run.dx;
                    ASSERT_LT(lane, fp.lanes);
                    WeightHome h = wl.homeOf(0, ch, k);
                    EXPECT_EQ(lane, h.lane) << "c " << ch << " k " << k;
                    EXPECT_EQ(slot, h.row / 8) << "c " << ch << " k "
                                               << k;
                    EXPECT_TRUE(seen.insert({ch, k}).second)
                        << "c " << ch << " k " << k << " placed twice";
                }
            }
        }
        EXPECT_EQ(seen.size(), size_t(cs.c) * cs.r * cs.s);
    }
}

TEST(WeightLayoutDeath, OutOfRangeElement)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl = layoutFor(op, g);
    EXPECT_DEATH(wl.homeOf(4, 0, 0), "out of range");
    EXPECT_DEATH(wl.homeOf(0, 8, 0), "out of range");
    EXPECT_DEATH(wl.homeOf(0, 0, 9), "out of range");
}

} // namespace
