/** @file Tests for the in-cache ISA and the per-bank program runner. */

#include <gtest/gtest.h>

#include "bitserial/cost.hh"
#include "cache/compute_cache.hh"
#include "common/rng.hh"
#include "core/controller.hh"

namespace
{

using namespace nc;
using core::Instruction;
using core::Opcode;
using core::runProgram;
namespace bs = bitserial;

struct Rig
{
    cache::ComputeCache cc;
    bs::RowAllocator rows{256};
};

TEST(Isa, OpcodeNamesCoverEveryOpcode)
{
    for (int i = 0; i <= static_cast<int>(Opcode::LoadTag); ++i) {
        const char *name = core::opcodeName(static_cast<Opcode>(i));
        EXPECT_STRNE(name, "?") << "opcode " << i;
    }
}

TEST(Controller, BroadcastKeepsGroupInLockstep)
{
    // Every array of a pass receives the identical stream and runs it
    // on its own data, so every array is charged the identical
    // cycles.
    Rig rig;
    bs::VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    bs::VecSlice out = rig.rows.alloc(9);
    const std::vector<Instruction> prog{Instruction::add(a, b, out)};

    Rng rng(5);
    for (unsigned i = 0; i < 8; ++i) {
        auto &arr = rig.cc.array(rig.cc.coordOf(i * 17));
        bs::storeVector(arr, a, rng.bitVector(256, 8));
        bs::storeVector(arr, b, rng.bitVector(256, 8));
        EXPECT_EQ(runProgram(arr, prog), bs::implAddCycles(8, true));
    }
    EXPECT_EQ(rig.cc.lockstepCycles(), bs::implAddCycles(8, true));
    EXPECT_EQ(rig.cc.totalComputeCycles(),
              bs::implAddCycles(8, true) * 8);
}

TEST(Controller, ProgramComputesAffineExpression)
{
    // (a + b) * c on two arrays with different data.
    Rig rig;
    bs::VecSlice a = rig.rows.alloc(8), b = rig.rows.alloc(8);
    bs::VecSlice c = rig.rows.alloc(8);
    bs::VecSlice sum = rig.rows.alloc(8);
    bs::VecSlice prod = rig.rows.alloc(16);

    auto &a0 = rig.cc.array(rig.cc.coordOf(0));
    auto &a1 = rig.cc.array(rig.cc.coordOf(320));
    bs::storeVector(a0, a, {10, 3});
    bs::storeVector(a0, b, {5, 4});
    bs::storeVector(a0, c, {2, 10});
    bs::storeVector(a1, a, {100, 0});
    bs::storeVector(a1, b, {1, 0});
    bs::storeVector(a1, c, {2, 9});

    std::vector<Instruction> prog{
        Instruction::add(a, b, sum),
        Instruction::multiply(sum, c, prod),
    };
    uint64_t total = runProgram(a0, prog);
    EXPECT_EQ(total, a0.computeCycles());
    EXPECT_EQ(runProgram(a1, prog), total);

    EXPECT_EQ(bs::loadLane(a0, prod, 0), 30u);  // (10+5)*2
    EXPECT_EQ(bs::loadLane(a0, prod, 1), 70u);  // (3+4)*10
    EXPECT_EQ(bs::loadLane(a1, prod, 0), 202u); // (100+1)*2
    EXPECT_EQ(bs::loadLane(a1, prod, 1), 0u);
}

TEST(Controller, ReduceAndSearchDecodeCorrectly)
{
    Rig rig;
    auto &arr = rig.cc.array(rig.cc.coordOf(0));

    bs::VecSlice acc = rig.rows.alloc(10);
    bs::VecSlice scratch = rig.rows.alloc(9);
    bs::storeVector(arr, acc, {1, 2, 3, 4});
    runProgram(arr, {Instruction::reduceSum(acc, 8, 4, scratch)});
    EXPECT_EQ(bs::loadLane(arr, acc, 0), 10u);

    bs::VecSlice keys = rig.rows.alloc(8);
    bs::storeVector(arr, keys, {9, 7, 9});
    runProgram(arr, {Instruction::search(keys, 9)});
    EXPECT_TRUE(arr.tag().get(0));
    EXPECT_FALSE(arr.tag().get(1));
    EXPECT_TRUE(arr.tag().get(2));
}

TEST(Controller, PredicatedCopyThroughIsa)
{
    Rig rig;
    auto &arr = rig.cc.array(rig.cc.coordOf(0));

    bs::VecSlice mask = rig.rows.alloc(1);
    bs::VecSlice src = rig.rows.alloc(8), dst = rig.rows.alloc(8);
    bs::storeVector(arr, mask, {1, 0, 1});
    bs::storeVector(arr, src, {7, 7, 7});
    bs::storeVector(arr, dst, {1, 2, 3});

    Instruction load;
    load.op = Opcode::LoadTag;
    load.a = mask;
    runProgram(arr, {load, Instruction::copy(src, dst, /*pred=*/true)});

    auto r = bs::loadVector(arr, dst);
    EXPECT_EQ(r[0], 7u);
    EXPECT_EQ(r[1], 2u);
    EXPECT_EQ(r[2], 7u);
}

TEST(Controller, CyclesAccumulateAcrossProgram)
{
    // A program run in segments charges exactly what one whole run
    // does: the packed-conv and max-pool kernels rely on it.
    Rig rig;
    bs::VecSlice a = rig.rows.alloc(8);
    bs::VecSlice out = rig.rows.alloc(8);
    const std::vector<Instruction> prog{Instruction::zero(out),
                                        Instruction::copy(a, out)};

    auto &whole = rig.cc.array(rig.cc.coordOf(0));
    auto &split = rig.cc.array(rig.cc.coordOf(1));
    uint64_t c1 = runProgram(split, prog, 0, 1);
    uint64_t c2 = runProgram(split, prog, 1, 2);
    EXPECT_EQ(runProgram(whole, prog), c1 + c2);
    EXPECT_EQ(split.computeCycles(), c1 + c2);
}

} // namespace
