/**
 * @file
 * Branch/eltwise parity harness: randomized multi-branch (Inception-
 * style concat) and residual (ResNet-style eltwise merge) networks
 * must produce bit-exact outputs whether they execute through the
 * reference CPU loops or the bit-serial executor — and for any
 * worker-thread count, since independent branches fan out over the
 * shared pool.
 *
 * Also home of the eltwise requantization property suite:
 * sat8(((a + b) * mult) >> shift) across saturation edges, and the
 * requantizer against accumulators at and above 2^31 (values that
 * would read as negative int32 — the unsigned in-array sequence must
 * saturate them, not sign-extend).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/engine.hh"
#include "core/executor.hh"
#include "dnn/random.hh"
#include "dnn/reference.hh"
#include "mapping/plan.hh"

#include "branch_nets.hh"

namespace
{

using namespace nc;
using core::BackendKind;
using testnets::mixedStage;
using testnets::residualStage;

/**
 * Compile @p net once per (backend, thread count) and pin every
 * output byte-for-byte against the single-threaded reference run.
 */
void
expectBranchParity(const dnn::Network &net, const dnn::QTensor &in,
                   const std::string &tag)
{
    const BackendKind kinds[] = {BackendKind::Reference,
                                 BackendKind::Functional};
    const unsigned threads[] = {1, 3};

    std::vector<uint8_t> golden;
    for (BackendKind kind : kinds) {
        for (unsigned t : threads) {
            core::EngineOptions opts;
            opts.backend = kind;
            opts.threads = t;
            core::Engine engine(opts);
            auto model = engine.compile(net);
            auto res = model.run(in);
            ASSERT_FALSE(res.output.data().empty()) << tag;
            if (golden.empty()) {
                golden = res.output.data();
            } else {
                EXPECT_EQ(golden, res.output.data())
                    << tag << ": " << core::backendKindName(kind)
                    << " with " << t << " threads";
            }
        }
    }
}

TEST(BranchParity, RandomizedMixedStages)
{
    Rng rng(0x3a3a);
    for (unsigned trial = 0; trial < 4; ++trial) {
        unsigned hw = 5 + static_cast<unsigned>(rng.uniformInt(0, 2));
        unsigned c = 2 + static_cast<unsigned>(rng.uniformInt(0, 2));

        dnn::Network net;
        net.name = "mixed-parity-" + std::to_string(trial);
        net.stages.push_back(mixedStage("mix1", hw, c, rng));
        unsigned c1 = 0;
        for (const auto &b : net.stages.back().branches)
            c1 += b.ops.back().isConv() ? b.ops.back().conv.m
                                        : b.ops.back().pool.c;
        // A second mixed stage consumes the concat, proving the
        // channel offsets compose across stages.
        net.stages.push_back(mixedStage("mix2", hw, c1, rng));

        Rng irng(7000 + trial);
        auto in = dnn::randomQTensor(irng, c, hw, hw);
        expectBranchParity(net, in, net.name);
    }
}

TEST(BranchParity, ResidualIdentityAndProjection)
{
    struct Case
    {
        unsigned cin, cout, stride;
    } cases[] = {
        {3, 3, 1}, // identity shortcut: merge with the stage input
        {3, 5, 1}, // projection (channel change)
        {4, 4, 2}, // projection (downsample)
    };
    unsigned idx = 0;
    for (const auto &[cin, cout, stride] : cases) {
        dnn::Network net;
        net.name = "residual-parity-" + std::to_string(idx);
        net.stages.push_back(
            residualStage("block", 6, cin, cout, stride));
        // A head conv consumes the merged tensor.
        unsigned out_hw = dnn::outDim(6, 3, stride, true);
        net.stages.push_back(dnn::singleOpStage(
            "head",
            dnn::conv("head", out_hw, out_hw, cout, 1, 1, 2)));

        Rng irng(0x1e5 + idx);
        auto in = dnn::randomQTensor(irng, cin, 6, 6);
        expectBranchParity(net, in, net.name);
        ++idx;
    }
}

TEST(BranchParity, SplitTailTowersConcatInOpOrder)
{
    // The Mixed_7b/7c shape: the tower's last two convs both read the
    // penultimate tensor and their outputs concatenate.
    const unsigned hw = 5, cin = 3;
    dnn::Branch b0{"b0",
                   {dnn::conv("split/b0/1x1", hw, hw, cin, 1, 1, 2)}};
    dnn::Branch b1{"b1",
                   {dnn::conv("split/b1/1x1", hw, hw, cin, 1, 1, 3),
                    dnn::conv("split/b1/1x3", hw, hw, 3, 1, 3, 2),
                    dnn::conv("split/b1/3x1", hw, hw, 3, 3, 1, 2)},
                   /*splitTail=*/true};
    dnn::Stage st;
    st.name = "split";
    st.branches = {b0, b1};

    dnn::Network net;
    net.name = "split-tail-parity";
    net.stages.push_back(st);
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", hw, hw, 6, 1, 1, 2)));

    Rng irng(0x511);
    auto in = dnn::randomQTensor(irng, cin, hw, hw);
    expectBranchParity(net, in, net.name);
}

TEST(BranchParity, StageConcatPlanMatchesExecutedLayout)
{
    // The mapper's concat plan is the authority on where each
    // branch's output lands; pin its offsets against the layout the
    // run loop actually produces (branch order, shortcuts excluded).
    Rng rng(0xc0ca);
    dnn::Stage st = mixedStage("plan", 6, 3, rng);
    auto plan = mapping::planStageConcat(st);

    unsigned off = 0;
    for (size_t bi = 0; bi < st.branches.size(); ++bi) {
        EXPECT_EQ(plan.concatOffset[bi], off) << "branch " << bi;
        off += plan.branchOut[bi].c;
    }
    EXPECT_EQ(plan.out.c, off);
    EXPECT_EQ(plan.shortcutBranch, -1);

    // Residual stages: the shortcut feeds the merge, not the concat.
    dnn::Stage res = residualStage("res", 6, 3, 5, 2);
    auto rplan = mapping::planStageConcat(res);
    EXPECT_EQ(rplan.shortcutBranch, 1);
    EXPECT_EQ(rplan.out.c, 5u);
    EXPECT_EQ(rplan.concatOffset[0], 0u);
    EXPECT_EQ(rplan.out.h, dnn::outDim(6, 3, 2, true));
}

// ---- Eltwise requantization properties ------------------------------

TEST(EltwiseRequantProperty, KernelMatchesOracleAcrossScalars)
{
    Rng rng(0xe17);
    cache::ComputeCache cc;
    core::Executor ex(cc, 1u);

    struct Scalars
    {
        uint8_t mult;
        unsigned shift;
    } cases[] = {
        {128, 8}, // the calibrated merge scalars (acc_max = 510)
        {255, 0}, // maximal gain: saturates for nearly every sum
        {1, 0},   // identity: saturates once a + b > 255
        {0, 0},   // degenerate zero gain
        {37, 3},  // odd gain / small shift
    };

    for (const auto &[mult, shift] : cases) {
        std::vector<uint8_t> a(300), b(300);
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<uint8_t>(rng.uniformInt(0, 255));
            b[i] = static_cast<uint8_t>(rng.uniformInt(0, 255));
        }
        // Pin the saturation edges explicitly.
        a[0] = 255;
        b[0] = 255;
        a[1] = 255;
        b[1] = 0;
        a[2] = 0;
        b[2] = 0;

        auto want = dnn::eltwiseAddQuant(a, b, mult, shift);
        EXPECT_EQ(ex.eltwiseAdd(a, b, mult, shift), want)
            << "executor mult=" << int(mult) << " shift=" << shift;
        // The prepared kernel answers every run from its one stream.
        auto prepared = ex.prepareEltwise(mult, shift, 1);
        EXPECT_EQ(prepared.run(a, b), want)
            << "prepared mult=" << int(mult) << " shift=" << shift;
        EXPECT_EQ(prepared.run(a, b), want)
            << "prepared rerun mult=" << int(mult)
            << " shift=" << shift;
    }
}

TEST(EltwiseRequantProperty, NegativeInt32AccumulatorsSaturateUnsigned)
{
    // Accumulators at and above 2^31 read as negative int32; the
    // unsigned in-array multiply/shift/clamp must treat them as the
    // large magnitudes they are.
    cache::ComputeCache cc;
    core::Executor ex(cc, 1u);

    std::vector<uint32_t> acc = {
        0x80000000u,  // INT32_MIN as a bit pattern
        0xffffffffu,  // all ones
        0x80000001u,
        0x7fffffffu,  // largest positive int32 for contrast
        255, 256, 0,
    };
    struct Scalars
    {
        uint8_t mult;
        unsigned shift;
    } cases[] = {{1, 0}, {1, 24}, {255, 31}, {128, 8}};

    for (const auto &[mult, shift] : cases) {
        auto got = ex.requantize(acc, mult, shift);
        ASSERT_EQ(got.size(), acc.size());
        for (size_t i = 0; i < acc.size(); ++i) {
            uint64_t t =
                (static_cast<uint64_t>(acc[i]) * mult) >> shift;
            uint8_t want =
                static_cast<uint8_t>(t > 0xff ? 0xff : t);
            EXPECT_EQ(got[i], want)
                << "acc=" << acc[i] << " mult=" << int(mult)
                << " shift=" << shift;
        }
    }
}

TEST(EltwiseRequantProperty, RandomizedSweepAgainstOracle)
{
    Rng rng(0xa5a5);
    cache::ComputeCache cc;
    core::Executor ex(cc, 1u);

    for (unsigned trial = 0; trial < 20; ++trial) {
        uint8_t mult = static_cast<uint8_t>(rng.uniformInt(0, 255));
        unsigned shift =
            static_cast<unsigned>(rng.uniformInt(0, 16));
        size_t n = 1 + static_cast<size_t>(rng.uniformInt(0, 40));
        std::vector<uint8_t> a(n), b(n);
        for (size_t i = 0; i < n; ++i) {
            a[i] = static_cast<uint8_t>(rng.uniformInt(0, 255));
            b[i] = static_cast<uint8_t>(rng.uniformInt(0, 255));
        }
        EXPECT_EQ(ex.eltwiseAdd(a, b, mult, shift),
                  dnn::eltwiseAddQuant(a, b, mult, shift))
            << "trial " << trial;
    }
}

} // namespace
