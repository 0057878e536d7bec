/** @file Tests for the preprocessed weight DRAM image (§IV-C). */

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mapping/weight_layout.hh"

namespace
{

using namespace nc::mapping;
using nc::cache::Geometry;
using nc::dnn::conv;
using nc::dnn::QWeights;

QWeights
randomWeights(nc::Rng &rng, unsigned m, unsigned c, unsigned r,
              unsigned s)
{
    QWeights w(m, c, r, s);
    for (auto &v : w.data)
        v = static_cast<uint8_t>(rng.uniformBits(8));
    return w;
}

/**
 * The comparator sort the linear-time ranking replaced, kept as the
 * reference it must match byte for byte: every element with its home,
 * sorted by (pass, array, word line, bit line).
 */
std::vector<WeightLayout::Placed>
sortedPlacements(const WeightLayout &wl, const nc::dnn::ConvOp &op,
                 const Geometry &g)
{
    // A flat key and a hand-written comparator, not std::tuple: the
    // sort runs on million-byte layers in unoptimized sanitizer
    // builds too.
    struct Keyed
    {
        unsigned pass;
        uint64_t flat;
        unsigned row, lane;
        WeightLayout::Placed p;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(size_t(op.m) * op.c * op.r * op.s);
    for (unsigned m = 0; m < op.m; ++m)
        for (unsigned c = 0; c < op.c; ++c)
            for (unsigned k = 0; k < op.r * op.s; ++k) {
                WeightHome h = wl.homeOf(m, c, k);
                uint64_t flat = (uint64_t(h.coord.way) * g.banksPerWay +
                                 h.coord.bank) *
                                    g.arraysPerBank() +
                                h.coord.array;
                keyed.push_back({h.pass, flat, h.row, h.lane,
                                 {h, m, c, k}});
            }
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed &a, const Keyed &b) {
                  if (a.pass != b.pass)
                      return a.pass < b.pass;
                  if (a.flat != b.flat)
                      return a.flat < b.flat;
                  if (a.row != b.row)
                      return a.row < b.row;
                  return a.lane < b.lane;
              });
    std::vector<WeightLayout::Placed> placed;
    placed.reserve(keyed.size());
    for (const auto &kp : keyed)
        placed.push_back(kp.p);
    return placed;
}

/** Placements and the image both match the sort, byte for byte. */
void
expectMatchesSort(const nc::dnn::ConvOp &op, uint64_t seed)
{
    nc::Rng rng(seed);
    Geometry g = Geometry::xeonE5_35MB();
    WeightLayout wl(op, planConv(op, g), g);
    QWeights w = randomWeights(rng, op.m, op.c, op.r, op.s);

    auto want = sortedPlacements(wl, op, g);
    auto placed = wl.placements();
    auto image = wl.dramImage(w);
    ASSERT_EQ(placed.size(), want.size());
    ASSERT_EQ(image.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const auto &p = want[i];
        const auto &q = placed[i];
        // Plain comparisons: a gtest assertion per byte would dominate
        // the test's run time on the million-byte layers.
        if (q.home != p.home || q.m != p.m || q.c != p.c || q.k != p.k ||
            image[i] != w.at(p.m, p.c, p.k / op.s, p.k % op.s))
            FAIL() << "position " << i << ": sort has (" << p.m << ","
                   << p.c << "," << p.k << "), ranking has (" << q.m
                   << "," << q.c << "," << q.k << ")";
    }
}

/** Whether the op's last filter streams in a later pass (pass > 0). */
bool
outgrowsOnePass(const nc::dnn::ConvOp &op, const Geometry &g)
{
    WeightLayout wl(op, planConv(op, g), g);
    return wl.homeOf(op.m - 1, op.c - 1, 0).pass > 0;
}

TEST(DramImage, RankingMatchesSortOnPlainConv)
{
    expectMatchesSort(conv("plain", 16, 16, 8, 3, 3, 4).conv, 90);
}

TEST(DramImage, RankingMatchesSortOnSplitFilters)
{
    auto op = conv("split_5x5", 35, 35, 48, 5, 5, 64).conv;
    ASSERT_GT(planConv(op, Geometry::xeonE5_35MB()).ft.splitFactor, 1u);
    expectMatchesSort(op, 91);
}

TEST(DramImage, RankingMatchesSortOnPackedPointwise)
{
    auto op = conv("packed_1x1", 8, 8, 2048, 1, 1, 320).conv;
    ASSERT_GT(planConv(op, Geometry::xeonE5_35MB()).ft.packFactor, 1u);
    expectMatchesSort(op, 92);
}

TEST(DramImage, RankingMatchesSortOnInceptionMultiArrayConv)
{
    // Inception v3's 7x1 conv over 768 channels: three arrays per
    // filter batch, and more arrays than one slice computes with.
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("mixed_7x1", 17, 17, 768, 7, 1, 192).conv;
    ASSERT_GT(planConv(op, g).arraysPerConv, 1u);
    ASSERT_TRUE(outgrowsOnePass(op, g));
    expectMatchesSort(op, 93);
}

TEST(DramImage, RankingMatchesSortOnInceptionFcHead)
{
    // The 2048 -> 1000 head packs into 500 arrays: a multi-pass layer.
    auto op = nc::dnn::fullyConnected("logits", 2048, 1000).conv;
    ASSERT_TRUE(outgrowsOnePass(op, Geometry::xeonE5_35MB()));
    expectMatchesSort(op, 94);
}

TEST(DramImage, PlacementsCarryEveryElementOnce)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl(op, planConv(op, g), g);

    auto placed = wl.placements();
    ASSERT_EQ(placed.size(), size_t(4) * 8 * 9);
    std::set<std::tuple<unsigned, unsigned, unsigned>> seen;
    for (const auto &p : placed)
        EXPECT_TRUE(seen.insert({p.m, p.c, p.k}).second);
}

TEST(DramImage, BytesFollowStreamingOrder)
{
    nc::Rng rng(88);
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl(op, planConv(op, g), g);
    QWeights w = randomWeights(rng, 4, 8, 3, 3);

    auto image = wl.dramImage(w);
    auto placed = wl.placements();
    ASSERT_EQ(image.size(), placed.size());
    for (size_t i = 0; i < image.size(); ++i) {
        const auto &p = placed[i];
        EXPECT_EQ(image[i], w.at(p.m, p.c, p.k / 3, p.k % 3))
            << "position " << i;
    }
}

TEST(DramImage, WordLinesFillSequentiallyWithinAnArray)
{
    // A linear DRAM burst must touch an array's word lines in
    // non-decreasing order — the property that makes one-pass filter
    // loading possible.
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 35, 35, 48, 5, 5, 8).conv; // split filters
    WeightLayout wl(op, planConv(op, g), g);
    auto placed = wl.placements();

    std::map<std::tuple<unsigned, unsigned, unsigned>, unsigned>
        last_row;
    for (const auto &p : placed) {
        auto arr = std::tuple(p.home.coord.way, p.home.coord.bank,
                              p.home.coord.array);
        auto it = last_row.find(arr);
        if (it != last_row.end()) {
            EXPECT_GE(p.home.row, it->second);
        }
        last_row[arr] = p.home.row;
    }
}

TEST(DramImage, PackedPointwiseImageSizeMatchesParams)
{
    nc::Rng rng(89);
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 8, 8, 64, 1, 1, 16).conv; // packs 16x
    WeightLayout wl(op, planConv(op, g), g);
    QWeights w = randomWeights(rng, 16, 64, 1, 1);
    auto image = wl.dramImage(w);
    EXPECT_EQ(image.size(), size_t(16) * 64);
}

TEST(DramImageDeath, TwoElementsSharingAHomeNameTheLayer)
{
    // Halving the lanes a filter batch owns overlaps neighbouring
    // batches: (m=1, c=0) lands on (m=0, c=4)'s bit line.
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("clash", 16, 16, 8, 3, 3, 4).conv;
    auto plan = planConv(op, g);
    ASSERT_GT(plan.convsPerArray, 1u);
    plan.lanesPerConv /= 2;
    WeightLayout wl(op, plan, g);
    QWeights w(4, 8, 3, 3);
    EXPECT_DEATH(wl.dramImage(w), "conv 'clash'.*shares its home");
    EXPECT_DEATH(wl.placements(), "conv 'clash'.*shares its home");
}

TEST(DramImageDeath, MismatchedWeights)
{
    Geometry g = Geometry::xeonE5_35MB();
    auto op = conv("c", 16, 16, 8, 3, 3, 4).conv;
    WeightLayout wl(op, planConv(op, g), g);
    QWeights wrong(4, 8, 3, 2);
    EXPECT_DEATH(wl.dramImage(wrong), "does not match");
}

} // namespace
