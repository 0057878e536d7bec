/**
 * @file
 * Differential suite for the fused macro-op passes.
 *
 * bitserial::multiply, macScratch and reduceSum run one fused sweep
 * (sram::Array::fusedMultiply/fusedMac/fusedReduceSum) on an ideal
 * array in fast mode, and their micro-op expansion anywhere else.
 * Every case here runs the ALU call on a fast array and on a
 * reference-mode copy of it — the latter always issues the micro-ops
 * — from random rows and random carry and tag latches, at every
 * runnable SIMD tier, and requires every row, both latches and both
 * cycle counters to match. Geometries cover group arrays of 1 to 17
 * members at member widths 64, 128 and 256 (odd counts leave half a
 * 512-bit register over) and plain arrays of 256 lanes and of a
 * width that is not a multiple of 64. runProgram's cycle cross-check
 * prices from the same formulas the passes charge, so this suite is
 * what ties a pass's charge to the micro-op count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bitserial/alu.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "sram/array.hh"
#include "sram/faults.hh"
#include "sram/kernels.hh"

namespace
{

using namespace nc;
using bitserial::VecSlice;
using common::simd::Tier;
using sram::Array;

constexpr unsigned kRows = 256;

/** Row bands, fixed across cases (widest shapes fit side by side). */
constexpr unsigned kA = 0;        ///< multiplicand, up to 32 rows
constexpr unsigned kB = 40;       ///< multiplier, up to 8 rows
constexpr unsigned kProd = 48;    ///< product / MAC scratch, 40 rows
constexpr unsigned kAcc = 100;    ///< accumulator / reduction, 32 rows
constexpr unsigned kRedScr = 140; ///< reduction scratch, 31 rows
constexpr unsigned kZero = 250;   ///< the "zero" row (random here)

struct Geometry
{
    unsigned cols, memberCols; ///< memberCols 0: plain array
};

std::vector<Geometry>
geometries()
{
    std::vector<Geometry> g;
    for (unsigned width : {64u, 128u, 256u})
        for (unsigned n = 1; n <= 17; ++n)
            g.push_back({width * n, width});
    g.push_back({256, 0});
    g.push_back({200, 0});
    return g;
}

std::string
describe(const Geometry &g)
{
    if (g.memberCols == 0)
        return "plain " + std::to_string(g.cols) + " lanes";
    return std::to_string(g.cols / g.memberCols) + " x " +
           std::to_string(g.memberCols) + " lanes";
}

/** A fast array with random rows and latches (cycle counters 0). */
Array
randomArray(const Geometry &g, uint64_t seed)
{
    Array a(kRows, g.cols, g.memberCols);
    Rng rng(seed);
    for (unsigned r = 0; r < kRows; ++r)
        for (size_t w = 0; w < a.rowRef(r).wordCount(); ++w)
            a.rowMut(r).setWord(w, rng.uniformBits(64));
    // Scramble both latches with per-lane random patterns through
    // the ops themselves, then start the counters from zero.
    a.carrySet(false);
    a.opAdd(200, 201, 202); // carry <- r200 AND r201
    a.opLoadTag(203);       // tag <- r203
    a.resetCycles();
    return a;
}

::testing::AssertionResult
sameState(const Array &got, const Array &want)
{
    for (unsigned r = 0; r < kRows; ++r)
        if (!(got.rowRef(r) == want.rowRef(r)))
            return ::testing::AssertionFailure() << "row " << r;
    if (!(got.carry() == want.carry()))
        return ::testing::AssertionFailure() << "carry latch";
    if (!(got.tag() == want.tag()))
        return ::testing::AssertionFailure() << "tag latch";
    if (got.computeCycles() != want.computeCycles())
        return ::testing::AssertionFailure()
               << "compute cycles " << got.computeCycles() << " vs "
               << want.computeCycles();
    if (got.accessCycles() != want.accessCycles())
        return ::testing::AssertionFailure() << "access cycles";
    return ::testing::AssertionSuccess();
}

class FusedPasses : public ::testing::TestWithParam<Tier>
{
  protected:
    void
    SetUp() override
    {
        prev = sram::kern::activeTier();
        sram::kern::forceTier(GetParam());
    }

    void TearDown() override { sram::kern::forceTier(prev); }

    /**
     * Run @p op on a fresh random fast array and on its
     * reference-mode copy; both must end identical. @p fused, when
     * given, additionally proves the fast array took the pass: run
     * on another copy, it must accept.
     */
    template <class Op, class Probe>
    void
    compare(const Geometry &g, uint64_t seed, Op op, Probe fused)
    {
        Array fast = randomArray(g, seed);
        Array ref = fast;
        ref.setReferenceMode(true);
        Array probe = fast;
        EXPECT_TRUE(fused(probe)) << "the pass declined";
        const uint64_t got = op(fast);
        const uint64_t want = op(ref);
        EXPECT_EQ(got, want) << "returned cycles";
        EXPECT_EQ(fast.computeCycles(), got);
        EXPECT_TRUE(sameState(fast, ref));
        EXPECT_TRUE(sameState(probe, ref)) << "(the entry point alone)";
    }

    Tier prev = Tier::Scalar;
};

struct MulShape
{
    unsigned abits, bbits, accBits;
};

TEST_P(FusedPasses, MacMatchesMicroOps)
{
    // The conv window's shape, a narrower accumulator (no zero-row
    // padding), and uneven operand widths.
    for (const MulShape s : {MulShape{8, 8, 24}, MulShape{8, 8, 16},
                             MulShape{12, 5, 24}}) {
        VecSlice a{kA, s.abits}, b{kB, s.bbits};
        VecSlice scratch{kProd, s.abits + s.bbits}, acc{kAcc, s.accBits};
        const uint64_t cycles =
            bitserial::implMulCycles(s.abits, s.bbits) +
            bitserial::implAddCycles(s.accBits, false);
        for (const Geometry &g : geometries()) {
            SCOPED_TRACE(describe(g) + ", mac " +
                         std::to_string(s.abits) + "x" +
                         std::to_string(s.bbits) + " into " +
                         std::to_string(s.accBits));
            compare(
                g, 0x3AC0 + g.cols + s.accBits,
                [&](Array &arr) {
                    return bitserial::macScratch(arr, a, b, acc,
                                                 scratch, kZero);
                },
                [&](Array &arr) {
                    return arr.fusedMac(kA, s.abits, kB, s.bbits, kAcc,
                                        s.accBits, kProd, kZero, cycles);
                });
        }
    }
}

TEST_P(FusedPasses, MultiplyMatchesMicroOps)
{
    // 8 x 8, the eltwise merge's 9 x 8 and requantization's 32 x 8.
    for (const MulShape s :
         {MulShape{8, 8, 0}, MulShape{9, 8, 0}, MulShape{32, 8, 0}}) {
        VecSlice a{kA, s.abits}, b{kB, s.bbits};
        VecSlice prod{kProd, s.abits + s.bbits};
        const uint64_t cycles =
            bitserial::implMulCycles(s.abits, s.bbits);
        for (const Geometry &g : geometries()) {
            SCOPED_TRACE(describe(g) + ", multiply " +
                         std::to_string(s.abits) + "x" +
                         std::to_string(s.bbits));
            compare(
                g, 0x3017 + g.cols + s.abits,
                [&](Array &arr) {
                    return bitserial::multiply(arr, a, b, prod);
                },
                [&](Array &arr) {
                    return arr.fusedMultiply(kA, s.abits, kB, s.bbits,
                                             kProd, cycles);
                });
        }
    }
}

TEST_P(FusedPasses, ReduceSumMatchesMicroOps)
{
    for (const Geometry &g : geometries()) {
        for (unsigned lanes = 1; lanes <= 256; lanes *= 2) {
            for (unsigned w0 : {8u, 16u, 24u}) {
                for (unsigned move : {1u, 2u}) {
                    SCOPED_TRACE(describe(g) + ", " +
                                 std::to_string(lanes) + " lanes, w0 " +
                                 std::to_string(w0) + ", move " +
                                 std::to_string(move));
                    const unsigned steps = log2Ceil(lanes);
                    VecSlice acc{kAcc, w0 + steps};
                    VecSlice scratch{kRedScr, w0 + 7};
                    bitserial::AluConfig cfg;
                    cfg.moveCyclesPerRow = move;
                    const uint64_t cycles =
                        bitserial::implReduceSumCycles(w0, lanes, move);
                    compare(
                        g, 0x5ED0 + g.cols + lanes + w0,
                        [&](Array &arr) {
                            return bitserial::reduceSum(arr, acc, w0,
                                                        lanes, scratch,
                                                        cfg);
                        },
                        [&](Array &arr) {
                            // One lane: nothing to fuse, and the
                            // sequence is empty (0 cycles).
                            return lanes == 1 ||
                                   arr.fusedReduceSum(kAcc, w0, lanes,
                                                      kRedScr, cycles);
                        });
                }
            }
        }
    }
}

TEST_P(FusedPasses, ConvWindowMatchesMicroOps)
{
    // One conv window's macro-ops back to back: zero the partial
    // sums, three MACs into 24 bits, then the 256-lane reduction.
    VecSlice partial{kAcc, 32}, scratch{kProd, 16}, red{kRedScr, 31};
    for (const Geometry &g : {Geometry{256 * 5, 256}, Geometry{256, 0}}) {
        SCOPED_TRACE(describe(g));
        Array fast = randomArray(g, 0x1D0);
        Array ref = fast;
        ref.setReferenceMode(true);
        for (Array *arr : {&fast, &ref}) {
            bitserial::zero(*arr, partial);
            for (unsigned k = 0; k < 3; ++k)
                bitserial::macScratch(*arr, VecSlice{kA + 8 * k, 8},
                                      VecSlice{kB - 8 * k, 8},
                                      partial.slice(0, 24), scratch,
                                      kZero);
            bitserial::reduceSum(*arr, partial, 24, 256, red);
        }
        EXPECT_TRUE(sameState(fast, ref));
    }
}

TEST_P(FusedPasses, FaultedArrayRunsTheMicroOps)
{
    // A stuck cell in a product row: the faulted fast array declines
    // every pass, so its fault hook sees each touch in the order the
    // reference-mode copy (same record) sees it.
    const unsigned stuck_row = kProd + 3;
    sram::faults::Config cfg;
    cfg.bist = false;
    for (uint64_t i : {0u, 1u})
        cfg.stuckCells.push_back({i, {stuck_row, 5, true}});
    sram::faults::Registry reg(cfg, 2, kRows, 256);

    const Geometry g{256, 0};
    Array fast = randomArray(g, 0xFA17);
    Array ideal = fast;
    Array ref = fast;
    ref.setReferenceMode(true);
    fast.setFaults(reg.recordFor(0));
    ref.setFaults(reg.recordFor(1));
    EXPECT_FALSE(fast.fusedMac(kA, 8, kB, 8, kAcc, 24, kProd, kZero, 0));

    VecSlice a{kA, 8}, b{kB, 8}, scratch{kProd, 16}, acc{kAcc, 24};
    for (Array *arr : {&fast, &ref, &ideal}) {
        bitserial::macScratch(*arr, a, b, acc, scratch, kZero);
        bitserial::multiply(*arr, a, b, scratch);
        bitserial::reduceSum(*arr, VecSlice{kAcc, 32}, 24, 256,
                             VecSlice{kRedScr, 31});
    }
    EXPECT_TRUE(sameState(fast, ref));
    // The defect shows: the ideal array ends elsewhere.
    EXPECT_FALSE(sameState(fast, ideal));
}

TEST_P(FusedPasses, AliasedBandsDeclineToTheMicroOps)
{
    // A zero row inside a band the pass writes, or a reduction
    // scratch band overlapping its operand, is a sequence only the
    // micro-ops order (or reject) correctly: the entry points refuse,
    // touching nothing, and the ALU result still matches the
    // reference copy.
    const Geometry g{512, 256};
    Array probe = randomArray(g, 0xA11A);
    EXPECT_FALSE(probe.fusedMac(kA, 8, kB, 8, kAcc, 24, kProd, kAcc + 20,
                                0));
    EXPECT_FALSE(probe.fusedMac(kA, 8, kB, 8, kAcc, 24, kProd, kProd + 3,
                                0));
    EXPECT_FALSE(probe.fusedReduceSum(kAcc, 24, 256, kAcc + 8, 0));
    EXPECT_FALSE(probe.fusedMultiply(kA, 8, kB, 8, kA + 4, 0));
    EXPECT_TRUE(sameState(probe, randomArray(g, 0xA11A)))
        << "a declined pass touched the array";

    Array fast = randomArray(g, 0xA11B);
    Array ref = fast;
    ref.setReferenceMode(true);
    for (Array *arr : {&fast, &ref})
        bitserial::macScratch(*arr, VecSlice{kA, 8}, VecSlice{kB, 8},
                              VecSlice{kAcc, 24}, VecSlice{kProd, 16},
                              kProd + 3);
    EXPECT_TRUE(sameState(fast, ref));
}

TEST_P(FusedPasses, ReferenceModeDeclines)
{
    Array ref = randomArray({256, 0}, 0x7EF);
    ref.setReferenceMode(true);
    Array before = ref;
    EXPECT_FALSE(ref.fusedMac(kA, 8, kB, 8, kAcc, 24, kProd, kZero, 0));
    EXPECT_FALSE(ref.fusedMultiply(kA, 8, kB, 8, kProd, 0));
    EXPECT_FALSE(ref.fusedReduceSum(kAcc, 24, 256, kRedScr, 0));
    EXPECT_TRUE(sameState(ref, before));
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, FusedPasses,
    ::testing::ValuesIn(sram::kern::availableTiers()),
    [](const ::testing::TestParamInfo<Tier> &info) {
        return std::string(common::simd::tierName(info.param));
    });

} // namespace
