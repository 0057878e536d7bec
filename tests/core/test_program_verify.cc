/**
 * @file
 * Tests for the static bit-serial program verifier: every check
 * class dies by name on a hand-built illegal program (with the layer
 * and instruction index in the message), the canonical layer
 * programs verify clean with cycle sums bit-exact against the
 * CostModel, and a program's static cycle account matches what the
 * per-bank runner actually charges on a real array — which the
 * runner itself re-checks per instruction, dying by name on drift.
 */

#include <gtest/gtest.h>

#include "bitserial/extensions.hh"
#include "cache/compute_cache.hh"
#include "core/controller.hh"
#include "core/cost_model.hh"
#include "core/program_verify.hh"
#include "dnn/layers.hh"
#include "mapping/plan.hh"

namespace
{

using namespace nc;
using core::Instruction;
using core::Opcode;
namespace bs = bitserial;
namespace verify = core::verify;

/** The context the verifier proves conv1's requant program under:
 * the accumulators and the gain are streamed in first. */
verify::ProgramContext
requantCtx(const mapping::RequantRowLayout &rows)
{
    verify::ProgramContext ctx;
    ctx.layer = "conv1";
    ctx.arrayRows = 256;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = {rows.acc, rows.gain};
    return ctx;
}

/** A 256-row context with rows [0,32) predefined and row 255 guarded. */
verify::ProgramContext
smallCtx()
{
    verify::ProgramContext ctx;
    ctx.layer = "testlayer";
    ctx.arrayRows = 256;
    ctx.guardRow = 255;
    ctx.initialDefs = {bs::VecSlice{0, 32}};
    return ctx;
}

// ---- Check class 1: row/slice bounds --------------------------------

TEST(ProgramVerifyDeath, OutOfBoundsSliceDiesWithLayerAndIndex)
{
    verify::ProgramContext ctx = smallCtx();
    std::vector<Instruction> prog{
        Instruction::zero(bs::VecSlice{0, 8}),
        Instruction::copy(bs::VecSlice{0, 8}, bs::VecSlice{250, 8}),
    };
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "program verify 'testlayer': inst 1 \\(copy\\).*"
                "out slice \\[250,\\+8\\) outside the 256-row array");
}

TEST(ProgramVerifyDeath, ZeroWidthOperandDies)
{
    verify::ProgramContext ctx = smallCtx();
    std::vector<Instruction> prog{
        Instruction::zero(bs::VecSlice{0, 0})};
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(zero\\): zero-width out operand");
}

TEST(ProgramVerifyDeath, EmptyProgramDies)
{
    verify::ProgramContext ctx = smallCtx();
    EXPECT_EXIT(verify::verifyProgram(ctx, {}),
                ::testing::ExitedWithCode(1),
                "program verify 'testlayer': empty program");
}

TEST(ProgramVerifyDeath, BandOutsideAuditedRangesDies)
{
    std::vector<mapping::AuditRange> ranges;
    mapping::AuditRange r;
    r.base = 0;
    r.arrays = 64;
    ranges.push_back(r);
    // Contained band passes...
    verify::requireAuditedBand("conv1", 10, 32, ranges);
    // ...one array past the audited extent does not.
    EXPECT_EXIT(verify::requireAuditedBand("conv1", 33, 32, ranges),
                ::testing::ExitedWithCode(1),
                "program verify 'conv1': array band \\[33,\\+32\\) is "
                "not contained");
}

// ---- Check class 2: def-before-use dataflow -------------------------

TEST(ProgramVerifyDeath, SenseBeforeDefDiesWithRowAndIndex)
{
    verify::ProgramContext ctx = smallCtx();
    // Rows [0,32) are prologue-defined; b at [40,+8) never is.
    std::vector<Instruction> prog{
        Instruction::add(bs::VecSlice{0, 8}, bs::VecSlice{40, 8},
                         bs::VecSlice{60, 9}),
    };
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(add\\): b reads row 40 \\(bit 0 of "
                "\\[40,\\+8\\)\\) before any def");

    // A requant stream run without its gain splat: the multiply
    // senses the multiplier band before anything defined it.
    const mapping::RequantRowLayout rows =
        mapping::makeRequantRowLayout(cache::Geometry::xeonE5_35MB());
    verify::ProgramContext rq = requantCtx(rows);
    rq.initialDefs = {rows.acc};
    EXPECT_EXIT(verify::verifyProgram(rq,
                                      verify::requantProgram(rows, 8)),
                ::testing::ExitedWithCode(1),
                "program verify 'conv1': inst 0 \\(multiply\\): b reads "
                "row 32 \\(bit 0 of \\[32,\\+8\\)\\) before any def");
}

TEST(ProgramVerify, WritesBecomeDefsForLaterReads)
{
    verify::ProgramContext ctx = smallCtx();
    // zero defines [40,+8), so the add may read it.
    std::vector<Instruction> prog{
        Instruction::zero(bs::VecSlice{40, 8}),
        Instruction::add(bs::VecSlice{0, 8}, bs::VecSlice{40, 8},
                         bs::VecSlice{60, 9}),
    };
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);
    EXPECT_EQ(st.instructions, 2u);
    EXPECT_EQ(st.defs, 8u + 9u);
    // 32 prologue rows + guard + 8 zeroed + 9 sum rows all live.
    EXPECT_EQ(st.maxLiveRows, 32u + 1u + 8u + 9u);
}

// ---- Check class 3: guard-row protection ----------------------------

TEST(ProgramVerifyDeath, GuardRowWriteDies)
{
    verify::ProgramContext ctx = smallCtx();
    std::vector<Instruction> prog{
        Instruction::zero(bs::VecSlice{248, 8})}; // rows 248..255
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(zero\\): out slice \\[248,\\+8\\) writes "
                "the reserved guard row 255");

    // A requant stream on a carve-up that reserved its zero row right
    // under the product band, with a clamp that reads the product one
    // row low: the multiply and the shift stay clear of the guard
    // row, but the clamp's field starts on it.
    mapping::RequantRowLayout rows =
        mapping::makeRequantRowLayout(cache::Geometry::xeonE5_35MB());
    rows.zrow = rows.prod.base;
    rows.prod.base += 1;
    std::vector<Instruction> rq = verify::requantProgram(rows, 8);
    ASSERT_EQ(rq.back().op, Opcode::Saturate);
    rq.back().a.base = rows.zrow;
    EXPECT_EXIT(verify::verifyProgram(requantCtx(rows), rq),
                ::testing::ExitedWithCode(1),
                "program verify 'conv1': inst 2 \\(saturate\\): a slice "
                "\\[40,\\+8\\) writes the reserved guard row 40");
}

// ---- Check class 4: carry/tag latch discipline ----------------------

TEST(ProgramVerifyDeath, OrphanedCarryConsumeDies)
{
    verify::ProgramContext ctx = smallCtx();
    // carryIn with no prior Add: the latches hold garbage.
    std::vector<Instruction> prog{
        Instruction::add(bs::VecSlice{0, 8}, bs::VecSlice{8, 8},
                         bs::VecSlice{40, 8}, bs::kNoRow,
                         /*carry_in=*/true),
    };
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(add\\): carry-in consumes the carry "
                "latches");
}

TEST(ProgramVerifyDeath, CarryClobberedBetweenProducerAndConsumerDies)
{
    verify::ProgramContext ctx = smallCtx();
    // add defines the carry, multiply's internal sequence clobbers
    // it, the second add may no longer consume it.
    std::vector<Instruction> prog{
        Instruction::add(bs::VecSlice{0, 8}, bs::VecSlice{8, 8},
                         bs::VecSlice{40, 8}),
        Instruction::multiply(bs::VecSlice{0, 8}, bs::VecSlice{8, 8},
                              bs::VecSlice{60, 16}),
        Instruction::add(bs::VecSlice{0, 8}, bs::VecSlice{8, 8},
                         bs::VecSlice{50, 8}, bs::kNoRow,
                         /*carry_in=*/true),
    };
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 2 \\(add\\): carry-in consumes the carry "
                "latches");
}

TEST(ProgramVerifyDeath, PredicatedWriteWithoutTagDies)
{
    verify::ProgramContext ctx = smallCtx();
    std::vector<Instruction> prog{
        Instruction::copy(bs::VecSlice{0, 8}, bs::VecSlice{40, 8},
                          /*pred=*/true),
    };
    EXPECT_EXIT(verify::verifyProgram(ctx, prog),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(copy\\): predicated write-back consumes "
                "the tag latches");
}

TEST(ProgramVerify, SearchArmsTheTagForPredicatedWrites)
{
    verify::ProgramContext ctx = smallCtx();
    std::vector<Instruction> prog{
        Instruction::search(bs::VecSlice{0, 8}, 0x42),
        Instruction::copy(bs::VecSlice{0, 8}, bs::VecSlice{40, 8}),
        Instruction::copy(bs::VecSlice{8, 8}, bs::VecSlice{40, 8},
                          /*pred=*/true),
    };
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);
    EXPECT_EQ(st.instructions, 3u);
}

TEST(ProgramVerifyDeath, PredOnNonPredicableOpcodeDies)
{
    verify::ProgramContext ctx = smallCtx();
    Instruction mul = Instruction::multiply(
        bs::VecSlice{0, 8}, bs::VecSlice{8, 8}, bs::VecSlice{60, 16});
    mul.pred = true;
    EXPECT_EXIT(verify::verifyProgram(ctx, {mul}),
                ::testing::ExitedWithCode(1),
                "inst 0 \\(multiply\\): pred set on an opcode with no "
                "predicated write-back");
}

// ---- Check class 5: static cycles vs CostModel ----------------------

TEST(ProgramVerifyDeath, CostMismatchDiesNamingLayerAndKind)
{
    cache::Geometry geom = cache::Geometry::xeonE5_35MB();
    core::CostModel costs(geom);
    mapping::EltwiseRowLayout rows = mapping::makeEltwiseRowLayout(geom);
    std::vector<Instruction> prog =
        verify::eltwiseMergeProgram(rows, /*shift=*/8);
    prog.pop_back(); // drop the clamp: the static sum comes up short

    verify::ProgramContext ctx;
    ctx.layer = "res/add";
    ctx.arrayRows = geom.arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = {rows.va, rows.vb, rows.gain};
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);
    ASSERT_LT(st.staticCycles, costs.eltwiseProgramCycles());

    EXPECT_EXIT(verify::crossCheckProgramCostOrDie(
                    "res/add", "eltwise", st.staticCycles,
                    costs.eltwiseProgramCycles()),
                ::testing::ExitedWithCode(1),
                "program verify 'res/add': eltwise program cost "
                "mismatch");
}

// ---- Canonical programs: clean and bit-exact ------------------------

TEST(ProgramVerify, CanonicalConvProgramMatchesCostModel)
{
    cache::Geometry geom = cache::Geometry::xeonE5_35MB();
    core::CostModel costs(geom);
    dnn::Op op = dnn::conv("conv", 8, 8, 3, 3, 3, 4);
    mapping::FunctionalConvPlan fplan =
        mapping::planFunctionalConv(op.conv, geom);
    ASSERT_TRUE(fplan.fits);
    mapping::ConvRowLayout rows = mapping::makeConvRowLayout(geom, fplan);

    verify::ProgramContext ctx;
    ctx.layer = op.name();
    ctx.arrayRows = geom.arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = rows.filt;
    ctx.initialDefs.insert(ctx.initialDefs.end(), rows.inp.begin(),
                           rows.inp.end());
    verify::ProgramStats st =
        verify::verifyProgram(ctx, verify::convWindowProgram(rows));
    EXPECT_EQ(st.instructions, 2u + rows.rs); // zero + macs + reduce
    EXPECT_EQ(st.staticCycles,
              costs.convWindowProgramCycles(rows.lanes, rows.rs));
}

TEST(ProgramVerify, CanonicalEltwiseProgramMatchesCostModel)
{
    cache::Geometry geom = cache::Geometry::xeonE5_35MB();
    core::CostModel costs(geom);
    mapping::EltwiseRowLayout rows = mapping::makeEltwiseRowLayout(geom);

    verify::ProgramContext ctx;
    ctx.layer = "elt";
    ctx.arrayRows = geom.arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = {rows.va, rows.vb, rows.gain};
    verify::ProgramStats st = verify::verifyProgram(
        ctx, verify::eltwiseMergeProgram(rows, /*shift=*/8));
    EXPECT_EQ(st.instructions, 4u);
    EXPECT_EQ(st.staticCycles, costs.eltwiseProgramCycles());
}

TEST(ProgramVerify, CanonicalMaxPoolProgramMatchesCostModel)
{
    cache::Geometry geom = cache::Geometry::xeonE5_35MB();
    core::CostModel costs(geom);
    mapping::PoolRowLayout rows = mapping::makePoolRowLayout(geom);

    for (unsigned window : {1u, 4u, 9u}) {
        verify::ProgramContext ctx;
        ctx.layer = "pool";
        ctx.arrayRows = geom.arrayRows;
        ctx.guardRow = rows.zrow;
        ctx.initialDefs = {rows.cur};
        verify::ProgramStats st = verify::verifyProgram(
            ctx, verify::maxPoolWindowProgram(rows, window));
        EXPECT_EQ(st.instructions, window);
        EXPECT_EQ(st.staticCycles,
                  costs.maxPoolWindowProgramCycles(window))
            << "window " << window;
    }
}

TEST(ProgramVerify, CanonicalRequantProgramIsExemptFromTheCostCheck)
{
    // Requantization's program verifies clean, but the CostModel
    // prices the phase with its own per-pass formula (an 8 x 32
    // multiply, a 32-bit shift and add), so check class 5 exempts it.
    cache::Geometry geom = cache::Geometry::xeonE5_35MB();
    core::CostModel costs(geom);
    const mapping::RequantRowLayout rows =
        mapping::makeRequantRowLayout(geom);
    EXPECT_EQ(rows.acc.base, 0u);
    EXPECT_EQ(rows.gain.base, 32u);
    EXPECT_EQ(rows.prod.base, 40u);
    EXPECT_EQ(rows.prod.bits, 40u);

    verify::ProgramStats st = verify::verifyProgram(
        requantCtx(rows), verify::requantProgram(rows, /*shift=*/19));
    EXPECT_EQ(st.instructions, 3u);
    EXPECT_EQ(st.defs, 40u); // the product band
    EXPECT_EQ(st.staticCycles, bs::implMulCycles(32, 8) +
                                   bs::implShiftCycles(40) +
                                   bs::implSaturateCycles(40, 8));
    EXPECT_EQ(st.staticCycles, 392u);
    EXPECT_EQ(costs.quantCyclesPerPass(), 424.0);
}

// ---- Static account vs what the runner actually charges -------------

TEST(ProgramVerify, StaticCyclesMatchControllerIssueConv)
{
    cache::ComputeCache cc;
    auto &arr = cc.array(0);
    dnn::Op op = dnn::conv("conv", 8, 8, 3, 3, 3, 4);
    mapping::FunctionalConvPlan fplan =
        mapping::planFunctionalConv(op.conv, cc.geometry());
    ASSERT_TRUE(fplan.fits);
    mapping::ConvRowLayout rows =
        mapping::makeConvRowLayout(cc.geometry(), fplan);
    for (unsigned k = 0; k < rows.rs; ++k) {
        bs::storeVector(arr, rows.filt[k], {1, 2, 3});
        bs::storeVector(arr, rows.inp[k], {4, 5, 6});
    }

    std::vector<Instruction> prog = verify::convWindowProgram(rows);
    verify::ProgramContext ctx;
    ctx.layer = op.name();
    ctx.arrayRows = cc.geometry().arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = rows.filt;
    ctx.initialDefs.insert(ctx.initialDefs.end(), rows.inp.begin(),
                           rows.inp.end());
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);

    uint64_t charged = core::runProgram(arr, prog);
    EXPECT_EQ(charged, arr.computeCycles());
    EXPECT_EQ(st.staticCycles, charged);
    // 9 window positions x {1,2,3}.{4,5,6} summed over the lanes.
    EXPECT_EQ(bs::loadLane(arr, rows.partial, 0), 9u * (4 + 10 + 18));
}

TEST(ProgramVerify, StaticCyclesMatchControllerIssueEltwise)
{
    cache::ComputeCache cc;
    auto &arr = cc.array(0);

    mapping::EltwiseRowLayout rows =
        mapping::makeEltwiseRowLayout(cc.geometry());
    bs::storeVector(arr, rows.va, {10, 200, 255});
    bs::storeVector(arr, rows.vb, {5, 100, 255});
    bs::storeVector(arr, rows.gain, {128, 128, 128});

    std::vector<Instruction> prog =
        verify::eltwiseMergeProgram(rows, /*shift=*/8);
    verify::ProgramContext ctx;
    ctx.layer = "elt";
    ctx.arrayRows = cc.geometry().arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = {rows.va, rows.vb, rows.gain};
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);

    uint64_t charged = core::runProgram(arr, prog);
    EXPECT_EQ(charged, arr.computeCycles());
    EXPECT_EQ(st.staticCycles, charged);
}

TEST(ProgramVerify, StaticCyclesMatchControllerIssueMaxPool)
{
    cache::ComputeCache cc;
    auto &arr = cc.array(0);

    mapping::PoolRowLayout rows =
        mapping::makePoolRowLayout(cc.geometry());
    bs::storeVector(arr, rows.cur, {7, 3, 250});

    std::vector<Instruction> prog =
        verify::maxPoolWindowProgram(rows, /*window=*/4);
    verify::ProgramContext ctx;
    ctx.layer = "pool";
    ctx.arrayRows = cc.geometry().arrayRows;
    ctx.guardRow = rows.zrow;
    ctx.initialDefs = {rows.cur};
    verify::ProgramStats st = verify::verifyProgram(ctx, prog);

    EXPECT_EQ(st.staticCycles, core::runProgram(arr, prog));
}

// ---- Runner rejections (the per-bank FSM boundary) -------------------

TEST(ControllerDeath, EmptyProgramRejectedByName)
{
    cache::ComputeCache cc;
    auto &arr = cc.array(0);
    EXPECT_EXIT(core::runProgram(arr, {}), ::testing::ExitedWithCode(1),
                "empty program range \\[0,0\\)");
    const std::vector<Instruction> prog{
        Instruction::zero(bs::VecSlice{0, 8})};
    EXPECT_EXIT(core::runProgram(arr, prog, 1, 1),
                ::testing::ExitedWithCode(1),
                "empty program range \\[1,1\\)");
}

TEST(ControllerDeath, ZeroWidthOperandRejectedByName)
{
    cache::ComputeCache cc;
    auto &arr = cc.array(0);
    EXPECT_EXIT(core::runProgram(arr,
                                 {Instruction::zero(bs::VecSlice{0, 8}),
                                  Instruction::zero(bs::VecSlice{0, 0})}),
                ::testing::ExitedWithCode(1),
                "instruction 1 \\(zero\\) rejected: zero-width out "
                "operand");
}

TEST(ControllerDeath, ChargedCyclesOffTheStaticModelPanicNamingTheOp)
{
    // The runtime half of the cycle cross-check: every instruction's
    // charge is compared with the static model. A model that prices
    // the lane moves at 3 cycles per row, against the FSM's native 2,
    // agrees on the zero and the MACs and dies on the reduction, by
    // opcode and index.
    cache::ComputeCache cc;
    auto &arr = cc.array(0);
    mapping::ConvRowLayout rows = mapping::makeConvRowLayout(
        cc.geometry(),
        mapping::planFunctionalConv(
            dnn::conv("conv", 8, 8, 3, 3, 3, 4).conv, cc.geometry()));
    std::vector<Instruction> prog = verify::convWindowProgram(rows);
    bs::AluConfig slow_moves;
    slow_moves.moveCyclesPerRow = 3;
    EXPECT_EQ(core::runProgram(arr, prog, 0, prog.size() - 1,
                               slow_moves),
              verify::instructionCycles(prog[0], slow_moves) +
                  (prog.size() - 2) *
                      verify::instructionCycles(prog[1], slow_moves));
    EXPECT_DEATH(core::runProgram(arr, prog, 0, prog.size(), slow_moves),
                 "cycle divergence at instruction 10 \\(reducesum\\)");
}

} // namespace
