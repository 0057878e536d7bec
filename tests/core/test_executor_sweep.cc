/**
 * @file
 * Parameterized functional sweep: the bit-serial executor must match
 * the reference convolution across a grid of layer shapes (channels,
 * filter geometry, stride, padding) — the broad-coverage counterpart
 * of the targeted executor tests.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "core/executor.hh"

namespace
{

using namespace nc;

struct Shape
{
    unsigned c, h, w, m, r, s, stride;
    bool same_pad;
};

/** The shape spelled out, e.g. c300_4x4_m2_k3x3_u1_same: the case
 * name, and what gtest prints for the parameter (the default prints
 * the struct's raw bytes, padding included, which vary by build). */
std::string
spell(const Shape &sh)
{
    std::ostringstream os;
    os << "c" << sh.c << "_" << sh.h << "x" << sh.w << "_m" << sh.m
       << "_k" << sh.r << "x" << sh.s << "_u" << sh.stride
       << (sh.same_pad ? "_same" : "_valid");
    return os.str();
}

void
PrintTo(const Shape &sh, std::ostream *os)
{
    *os << spell(sh);
}

class ExecutorSweep : public ::testing::TestWithParam<Shape>
{
};

TEST_P(ExecutorSweep, ConvBitExact)
{
    const Shape &sh = GetParam();
    Rng rng(sh.c * 1000 + sh.r * 100 + sh.m * 10 + sh.stride);

    dnn::QTensor in(sh.c, sh.h, sh.w);
    for (auto &v : in.data())
        v = static_cast<uint8_t>(rng.uniformBits(8));
    dnn::QWeights w(sh.m, sh.c, sh.r, sh.s);
    for (auto &v : w.data)
        v = static_cast<uint8_t>(rng.uniformBits(8));

    cache::ComputeCache cc;
    core::Executor ex(cc);
    unsigned oh1, ow1, oh2, ow2;
    auto got = ex.conv(in, w, sh.stride, sh.same_pad, oh1, ow1);
    auto want =
        dnn::convQuantUnsigned(in, w, sh.stride, sh.same_pad, oh2,
                               ow2);
    ASSERT_EQ(oh1, oh2);
    ASSERT_EQ(ow1, ow2);
    ASSERT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorSweep,
    ::testing::Values(
        // channel counts around the pow2 padding boundaries
        Shape{1, 4, 4, 1, 1, 1, 1, true},
        Shape{2, 4, 4, 2, 3, 3, 1, true},
        Shape{3, 5, 5, 2, 3, 3, 1, true},
        Shape{4, 5, 5, 1, 3, 3, 2, false},
        Shape{5, 4, 4, 2, 2, 2, 2, false},
        Shape{9, 4, 4, 1, 3, 3, 1, true},
        Shape{16, 4, 4, 2, 1, 1, 1, true},
        Shape{17, 3, 3, 1, 3, 3, 1, false},
        Shape{32, 3, 3, 2, 1, 3, 1, true},
        Shape{64, 3, 3, 1, 3, 1, 1, true},
        // strided + VALID combinations
        Shape{8, 9, 9, 2, 3, 3, 2, false},
        Shape{8, 8, 8, 2, 2, 2, 2, false},
        Shape{8, 7, 9, 1, 3, 3, 2, true},
        // asymmetric windows (the 1x7/7x1 factorized towers)
        Shape{12, 5, 7, 2, 1, 5, 1, true},
        Shape{12, 7, 5, 2, 5, 1, 1, true},
        // wide but shallow (the FC-as-conv corner)
        Shape{128, 1, 1, 3, 1, 1, 1, true},
        Shape{256, 1, 1, 2, 1, 1, 1, true},
        // every kind of lane-table run on the default geometry (see
        // SweepEngagesEveryMappingKind): packed 1x1, packed 1x1 over
        // two chunks, split 5x5, and a 3x3 over two channel chunks
        Shape{300, 3, 3, 2, 1, 1, 1, true},
        Shape{4100, 2, 2, 2, 1, 1, 1, true},
        Shape{8, 6, 6, 2, 5, 5, 1, true},
        Shape{300, 4, 4, 2, 3, 3, 1, true}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return spell(info.param);
    });

TEST(ExecutorSweep, SweepEngagesEveryMappingKind)
{
    // The shapes appended last must keep engaging the transform each
    // one is there for: (pack, split, chunks) per the mapper.
    struct Want
    {
        unsigned c, r, s, pack, split, chunks;
    };
    const cache::Geometry geom;
    for (const Want &k : {Want{300, 1, 1, 16, 1, 1},
                          Want{4100, 1, 1, 16, 1, 2},
                          Want{8, 5, 5, 1, 3, 1},
                          Want{300, 3, 3, 1, 1, 2}}) {
        mapping::FunctionalConvPlan p = mapping::planFunctionalConv(
            dnn::conv("c", 4, 4, k.c, k.r, k.s, 2).conv, geom);
        EXPECT_EQ(p.packFactor, k.pack) << k.c << " " << k.r;
        EXPECT_EQ(p.splitFactor, k.split) << k.c << " " << k.r;
        EXPECT_EQ(p.chunks, k.chunks) << k.c << " " << k.r;
    }
}

} // namespace
