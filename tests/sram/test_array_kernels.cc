/**
 * @file
 * Differential property suite for the word-parallel Array kernels.
 *
 * Every Array::op* has two implementations: the fused word-level fast
 * path and the bit-by-bit reference path (setReferenceMode). These
 * tests drive both with identical stimulus — every runnable SIMD
 * dispatch tier (pinned with forceTier), all ops, predication on and
 * off, widths that are not multiples of 64 — and require bit-exact
 * agreement of every row, both latches, and both cycle counters
 * after every step. The transposed storeVector/loadVector fast paths
 * are pinned the same way, and so are group arrays (members side by
 * side, the lane shift confined to each member).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bitserial/layout.hh"
#include "common/rng.hh"
#include "sram/array.hh"
#include "sram/kernels.hh"

namespace
{

using nc::Rng;
using nc::common::simd::Tier;
using nc::sram::Array;

constexpr unsigned kRows = 16;

class KernelDiff
    : public ::testing::TestWithParam<std::tuple<Tier, unsigned>>
{
  protected:
    void
    SetUp() override
    {
        // Pin this case's dispatch tier; TearDown restores the
        // previous one so later suites in the same process see the
        // normal NC_SIMD/CPUID resolution. The reference array runs
        // the bit-by-bit path regardless of tier, so every tier's
        // kernels are pinned against tier-independent semantics.
        prev = nc::sram::kern::activeTier();
        nc::sram::kern::forceTier(std::get<0>(GetParam()));
        unsigned cols = this->cols();
        fast = std::make_unique<Array>(kRows, cols);
        ref = std::make_unique<Array>(kRows, cols);
        ref->setReferenceMode(true);

        Rng rng(0xC0FFEEu ^ cols);
        for (unsigned r = 0; r < kRows; ++r) {
            for (unsigned lane = 0; lane < cols; ++lane) {
                bool v = rng.uniformBits(1) != 0;
                fast->poke(r, lane, v);
                ref->poke(r, lane, v);
            }
        }
        // Scramble both latches with data-dependent (hence per-lane
        // random) patterns, through the ops themselves.
        both([](Array &a) {
            a.carrySet(false);
            a.opAdd(0, 1, 2);       // carry <- majority(r0, r1, 0)
            a.opLoadTag(3);         // tag <- r3
        });
    }

    void
    TearDown() override
    {
        nc::sram::kern::forceTier(prev);
    }

    template <class F>
    void
    both(F f)
    {
        f(*fast);
        f(*ref);
    }

    void
    expectSame(const char *what)
    {
        for (unsigned r = 0; r < kRows; ++r) {
            EXPECT_TRUE(fast->rowRef(r) == ref->rowRef(r))
                << what << ": row " << r << " diverged (cols "
                << cols() << ", tier "
                << nc::common::simd::tierName(std::get<0>(GetParam()))
                << ")";
        }
        EXPECT_TRUE(fast->carry() == ref->carry())
            << what << ": carry latch diverged";
        EXPECT_TRUE(fast->tag() == ref->tag())
            << what << ": tag latch diverged";
        EXPECT_EQ(fast->computeCycles(), ref->computeCycles())
            << what << ": compute cycle drift";
        EXPECT_EQ(fast->accessCycles(), ref->accessCycles())
            << what << ": access cycle drift";
    }

    unsigned cols() const { return std::get<1>(GetParam()); }

    std::unique_ptr<Array> fast, ref;
    Tier prev = Tier::Scalar;
};

TEST_P(KernelDiff, LogicOps)
{
    // The dual-row sense (BL = A AND B, BLB = A NOR B) is reached
    // through the full adder: with the carry preset to 0 an add
    // commits A XOR B and latches A AND B; preset to 1 it commits
    // A XNOR B and latches A OR B, whose inverse (the tag loaded from
    // the inverted carry) is A NOR B. Both paths must agree with each
    // other and with those truth tables, lane by lane.
    for (bool cin : {false, true}) {
        for (bool pred : {false, true}) {
            const Array before = *fast;
            both([&](Array &a) {
                a.carrySet(cin);
                a.opAdd(0, 1, 4, pred);
                a.opStoreCarry(5);
                a.opLoadTagFromCarry(/*invert=*/true);
                a.opStoreTag(6);
            });
            expectSame(pred ? "adder sense pred" : "adder sense");
            for (unsigned i = 0; i < cols(); ++i) {
                const bool x = before.peek(0, i), y = before.peek(1, i);
                const bool sum = x != y ? !cin : cin;
                const bool carry = cin ? x || y : x && y;
                const bool kept = pred && !before.tag().get(i);
                EXPECT_EQ(fast->peek(4, i), kept ? before.peek(4, i) : sum)
                    << "sum, carry-in " << cin << " lane " << i;
                EXPECT_EQ(fast->peek(5, i), carry)
                    << "carry, carry-in " << cin << " lane " << i;
                EXPECT_EQ(fast->peek(6, i), !carry)
                    << "inverted carry, carry-in " << cin << " lane " << i;
            }
        }
    }
}

TEST_P(KernelDiff, AddUpdatesSumAndCarry)
{
    for (bool pred : {false, true}) {
        both([&](Array &a) {
            a.opAdd(0, 1, 9, pred);
            a.opAdd(2, 3, 9, pred);  // chained carry
            a.opAdd(9, 4, 9, pred);  // dst aliases an operand
        });
        expectSame(pred ? "add pred" : "add");
    }
}

TEST_P(KernelDiff, CopyZeroOnes)
{
    for (bool pred : {false, true}) {
        both([&](Array &a) {
            a.opCopy(0, 10, pred);
            a.opCopyInv(1, 11, pred);
            a.opZero(12, pred);
            a.opOnes(13, pred);
        });
        expectSame(pred ? "copy pred" : "copy");
    }
}

TEST_P(KernelDiff, TagFamily)
{
    both([&](Array &a) {
        a.opLoadTag(0);
        a.opTagAnd(1);
        a.opTagOr(2);
        a.opTagAndInv(3);
        a.opTagAndXnor(5, 6);
        a.opLoadTagFromCarry(false);
        a.opLoadTagFromCarry(true);
        a.opStoreTag(14);
        a.opStoreCarry(15);
        a.opStoreTag(14, /*pred=*/true);
        a.opStoreCarry(15, /*pred=*/true);
    });
    expectSame("tag family");
}

TEST_P(KernelDiff, LaneShift)
{
    unsigned cols = this->cols();
    for (unsigned shift : {0u, 1u, 7u, 63u, 64u, 65u, cols - 1, cols,
                           cols + 3}) {
        both([&](Array &a) { a.opLaneShift(0, 10, shift); });
        expectSame("lane shift");
        // Pin the funnel shift against the semantic definition, not
        // just against the other implementation.
        for (unsigned i = 0; i < cols; ++i) {
            bool want = i + shift < cols && fast->peek(0, i + shift);
            EXPECT_EQ(fast->peek(10, i), want)
                << "shift " << shift << " lane " << i;
        }
    }
    // In-place shift (dst == src).
    Array before = *fast;
    both([&](Array &a) { a.opLaneShift(11, 11, 5); });
    expectSame("lane shift in place");
    for (unsigned i = 0; i < cols; ++i) {
        bool want = i + 5 < cols && before.peek(11, i + 5);
        EXPECT_EQ(fast->peek(11, i), want) << "in-place lane " << i;
    }
}

TEST_P(KernelDiff, RandomOpSoup)
{
    // A few hundred randomly chosen ops with random operands: the two
    // paths must stay in lock-step the whole way.
    Rng rng(0x5eed ^ cols());
    for (unsigned step = 0; step < 300; ++step) {
        unsigned op = static_cast<unsigned>(rng.uniformInt(0, 7));
        unsigned ra = static_cast<unsigned>(
            rng.uniformInt(0, kRows - 1));
        unsigned rb = static_cast<unsigned>(
            rng.uniformInt(0, kRows - 1));
        if (rb == ra)
            rb = (ra + 1) % kRows;
        unsigned dst = static_cast<unsigned>(
            rng.uniformInt(0, kRows - 1));
        bool pred = rng.uniformBits(1) != 0;
        unsigned shift = static_cast<unsigned>(
            rng.uniformInt(0, cols()));
        both([&](Array &a) {
            switch (op) {
              case 0: a.opAdd(ra, rb, dst, pred); break;
              case 1: a.opCopy(ra, dst, pred); break;
              case 2: a.opCopyInv(ra, dst, pred); break;
              case 3: a.opLoadTag(ra); break;
              case 4: a.opTagAnd(ra); break;
              case 5: a.opLoadTagFromCarry(pred); break;
              case 6: a.opStoreCarry(dst, pred); break;
              case 7: a.opLaneShift(ra, dst, shift); break;
            }
        });
    }
    expectSame("op soup");
}

TEST_P(KernelDiff, TransposedStoreLoadRoundTrip)
{
    unsigned cols = this->cols();
    Rng rng(0xAB1E ^ cols);
    for (unsigned bits : {1u, 7u, 8u, 13u, 64u}) {
        if (bits > kRows)
            continue;
        nc::bitserial::VecSlice slice{0, bits};
        std::vector<uint64_t> values(
            static_cast<size_t>(rng.uniformInt(0, cols)));
        for (auto &v : values)
            v = rng.uniformBits(bits);

        nc::bitserial::storeVector(*fast, slice, values);
        nc::bitserial::storeVector(*ref, slice, values);
        expectSame("storeVector");

        auto got = nc::bitserial::loadVector(*fast, slice);
        auto want = nc::bitserial::loadVector(*ref, slice);
        EXPECT_EQ(got, want) << "loadVector diverged, bits " << bits;
        ASSERT_EQ(got.size(), cols);
        for (size_t i = 0; i < values.size(); ++i)
            EXPECT_EQ(got[i], values[i]) << "lane " << i;
        for (size_t i = values.size(); i < cols; ++i)
            EXPECT_EQ(got[i], 0u) << "pad lane " << i;
        for (unsigned lane = 0; lane < cols; ++lane) {
            EXPECT_EQ(nc::bitserial::loadLane(*fast, slice, lane),
                      got[lane]);
        }
    }
}

/**
 * Group arrays: members of 64, 128 or 256 lanes side by side. The
 * lane shift — the one cross-lane op — must move bits only within a
 * member, on the fast path and the reference path alike; the member
 * copies must round-trip rows and both latches; and the member-set
 * store and the per-member lane read-out must act on each member as
 * storeVector and loadLane act on a solo array.
 */
class MemberDiff
    : public ::testing::TestWithParam<std::tuple<Tier, unsigned, unsigned>>
{
  protected:
    void
    SetUp() override
    {
        prev = nc::sram::kern::activeTier();
        nc::sram::kern::forceTier(std::get<0>(GetParam()));
        fast = std::make_unique<Array>(kRows, cols(), width());
        ref = std::make_unique<Array>(kRows, cols(), width());
        ref->setReferenceMode(true);
        Rng rng(0xD1CEu ^ cols() ^ (width() << 16));
        for (unsigned r = 0; r < kRows; ++r) {
            for (unsigned lane = 0; lane < cols(); ++lane) {
                bool v = rng.uniformBits(1) != 0;
                fast->poke(r, lane, v);
                ref->poke(r, lane, v);
            }
        }
    }

    void TearDown() override { nc::sram::kern::forceTier(prev); }

    unsigned width() const { return std::get<1>(GetParam()); }
    unsigned members() const { return std::get<2>(GetParam()); }
    unsigned cols() const { return width() * members(); }

    /** Lane i of @p dst must hold lane i + shift of @p src when both
     * lie in one member, else 0. */
    void
    expectShifted(const Array &a, unsigned src_row,
                  const nc::sram::BitRow &src, unsigned dst,
                  unsigned shift)
    {
        for (unsigned i = 0; i < cols(); ++i) {
            bool want = i % width() + shift < width() &&
                        src.get(i + shift);
            EXPECT_EQ(a.peek(dst, i), want)
                << "row " << src_row << " shift " << shift << " lane "
                << i << " (member width " << width() << ", "
                << members() << " members)";
        }
    }

    std::unique_ptr<Array> fast, ref;
    Tier prev = Tier::Scalar;
};

TEST_P(MemberDiff, LaneShiftStaysInsideMembers)
{
    EXPECT_EQ(fast->members(), members());
    EXPECT_EQ(fast->memberCols(), width());
    unsigned w = width();
    for (unsigned shift : {0u, 1u, 63u, 64u, 65u, w - 1, w}) {
        for (bool in_place : {false, true}) {
            unsigned src = in_place ? 9 : 0;
            unsigned dst = in_place ? 9 : 10;
            nc::sram::BitRow before = fast->rowRef(src);
            fast->opLaneShift(src, dst, shift);
            ref->opLaneShift(src, dst, shift);
            for (unsigned r = 0; r < kRows; ++r)
                EXPECT_TRUE(fast->rowRef(r) == ref->rowRef(r))
                    << "row " << r << " diverged, shift " << shift
                    << (in_place ? " in place" : "");
            EXPECT_EQ(fast->computeCycles(), ref->computeCycles());
            expectShifted(*fast, src, before, dst, shift);
        }
    }
}

TEST_P(MemberDiff, MemberCopiesRoundTripRowsAndLatches)
{
    // A one-member array per member, with its own rows and latches.
    Rng rng(0xFEED ^ cols());
    std::vector<Array> solo;
    for (unsigned j = 0; j < members(); ++j) {
        solo.emplace_back(kRows, width());
        Array &a = solo.back();
        for (unsigned r = 0; r < kRows; ++r)
            for (unsigned lane = 0; lane < width(); ++lane)
                a.poke(r, lane, rng.uniformBits(1) != 0);
        a.carrySet(false);
        a.opAdd(0, 1, 2); // carry <- majority(r0, r1, 0)
        a.opLoadTag(3);
    }
    for (unsigned j = 0; j < members(); ++j)
        fast->loadMember(j, solo[j]);
    for (unsigned j = 0; j < members(); ++j) {
        for (unsigned lane = 0; lane < width(); ++lane) {
            unsigned at = j * width() + lane;
            for (unsigned r = 0; r < kRows; ++r)
                ASSERT_EQ(fast->peek(r, at), solo[j].peek(r, lane));
            EXPECT_EQ(fast->carry().get(at), solo[j].carry().get(lane));
            EXPECT_EQ(fast->tag().get(at), solo[j].tag().get(lane));
        }
    }

    // A vector shorter than a member, stored over the random (stale)
    // words of a strided member set, leaves each of those members as
    // storeVector leaves a solo array, and the others untouched.
    const nc::bitserial::VecSlice band{5, 8};
    std::vector<uint64_t> vals(width() / 2 - 3);
    for (uint64_t &v : vals)
        v = rng.uniformBits(8);
    const unsigned first = members() > 2 ? 1 : 0, stride = 2;
    auto written = [&](unsigned j) {
        return j >= first && (j - first) % stride == 0;
    };
    Array before = *fast;
    nc::bitserial::storeMembers(*fast, band, vals, first, stride);
    for (unsigned j = 0; j < members(); ++j) {
        Array want(kRows, width());
        want.setReferenceMode(true); // the bit-by-bit store
        nc::bitserial::storeVector(want, band, vals);
        for (unsigned r = band.base; r < band.base + band.bits; ++r) {
            for (unsigned lane = 0; lane < width(); ++lane) {
                const unsigned at = j * width() + lane;
                ASSERT_EQ(fast->peek(r, at), written(j)
                                                 ? want.peek(r, lane)
                                                 : before.peek(r, at))
                    << "member " << j << " row " << r << " lane " << lane;
            }
        }
    }

    // The read-out takes one lane of every member, as loadLane does.
    std::vector<uint64_t> got(members());
    for (unsigned lane : {0u, 1u, width() / 2 - 4, width() - 1}) {
        for (const nc::bitserial::VecSlice &s :
             {band, nc::bitserial::VecSlice{0, kRows}}) {
            nc::bitserial::loadMemberLanes(*fast, s, lane, got);
            for (unsigned j = 0; j < members(); ++j)
                EXPECT_EQ(got[j], nc::bitserial::loadLane(
                                      *fast, s, j * width() + lane))
                    << "member " << j << " lane " << lane << " rows "
                    << s.base << "+" << s.bits;
        }
    }

    // Ops on the group act per member; copying back gives each solo
    // array exactly what running the op on it would.
    fast->opAdd(0, 1, 4);
    for (unsigned j = 0; j < members(); ++j) {
        Array want = solo[j];
        if (written(j))
            nc::bitserial::storeVector(want, band, vals);
        want.opAdd(0, 1, 4);
        fast->storeMember(j, solo[j]);
        for (unsigned r = 0; r < kRows; ++r)
            EXPECT_TRUE(solo[j].rowRef(r) == want.rowRef(r))
                << "member " << j << " row " << r;
        EXPECT_TRUE(solo[j].carry() == want.carry()) << "member " << j;
        EXPECT_TRUE(solo[j].tag() == want.tag()) << "member " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TiersXMembers, MemberDiff,
    ::testing::Combine(
        ::testing::ValuesIn(nc::sram::kern::availableTiers()),
        ::testing::Values(64u, 128u, 256u),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<MemberDiff::ParamType> &info) {
        return std::string(nc::common::simd::tierName(
                   std::get<0>(info.param))) +
               "_w" + std::to_string(std::get<1>(info.param)) + "_x" +
               std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    TiersXWidths, KernelDiff,
    ::testing::Combine(
        ::testing::ValuesIn(nc::sram::kern::availableTiers()),
        ::testing::Values(1u, 3u, 37u, 64u, 65u, 127u, 128u, 200u,
                          256u)),
    [](const ::testing::TestParamInfo<KernelDiff::ParamType> &info) {
        return std::string(nc::common::simd::tierName(
                   std::get<0>(info.param))) +
               "_w" + std::to_string(std::get<1>(info.param));
    });

} // namespace
