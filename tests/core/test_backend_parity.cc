/**
 * @file
 * Backend parity harness: randomized conv/fc/pool networks must
 * produce bit-exact outputs whether they execute through the
 * reference CPU loops or the bit-serial executor's instruction
 * streams — and the analytic cost model must agree with the
 * functional executor's measured cycles on the shapes the executor
 * supports.
 */

#include <gtest/gtest.h>

#include "bitserial/cost.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/executor.hh"
#include "dnn/random.hh"

namespace
{

using namespace nc;
using core::BackendKind;

/** Compile @p net once per backend and run @p in through each. */
void
expectParity(const dnn::Network &net, const core::ModelWeights &mw,
             const dnn::QTensor &in, const std::string &tag)
{
    std::vector<uint8_t> outputs[2];
    const BackendKind kinds[] = {BackendKind::Reference,
                                 BackendKind::Functional};
    for (int i = 0; i < 2; ++i) {
        core::EngineOptions opts;
        opts.backend = kinds[i];
        core::Engine engine(opts);
        auto model = engine.compile(net, mw);
        // The verifier proves the in-array programs a Functional
        // model runs; a Reference model's CPU loops have none.
        EXPECT_EQ(model.programsVerified() > 0,
                  kinds[i] == BackendKind::Functional)
            << tag << ": " << core::backendKindName(kinds[i]);
        auto res = model.run(in);
        outputs[i] = res.output.data();
        ASSERT_FALSE(outputs[i].empty()) << tag;
    }
    EXPECT_EQ(outputs[0], outputs[1])
        << tag << ": reference vs functional";
}

TEST(BackendParity, RandomizedConvPoolNetworks)
{
    Rng rng(0xb0b);
    for (unsigned trial = 0; trial < 5; ++trial) {
        unsigned c = 1 + static_cast<unsigned>(rng.uniformInt(0, 5));
        unsigned m = 1 + static_cast<unsigned>(rng.uniformInt(0, 4));
        unsigned k = rng.uniformInt(0, 1) ? 3 : 1;
        unsigned stride =
            1 + static_cast<unsigned>(rng.uniformInt(0, 1));
        bool same_pad = rng.uniformInt(0, 1) != 0;
        unsigned hw = 6 + static_cast<unsigned>(rng.uniformInt(0, 3));

        dnn::Network net;
        net.name = "parity-" + std::to_string(trial);
        net.stages.push_back(dnn::singleOpStage(
            "conv1",
            dnn::conv("conv1", hw, hw, c, k, k, m, stride,
                      same_pad)));
        unsigned oh = net.stages.back()
                          .branches.front()
                          .ops.front()
                          .conv.outH();
        bool pooled = oh >= 4 && oh % 2 == 0;
        if (pooled) {
            net.stages.push_back(dnn::singleOpStage(
                "pool1",
                dnn::maxPool("pool1", oh, oh, m, 2, 2, 2)));
            oh /= 2;
        }
        net.stages.push_back(dnn::singleOpStage(
            "head", dnn::conv("head", oh, oh, m, 1, 1, 2)));

        Rng wrng(1000 + trial);
        core::ModelWeights mw;
        mw.emplace("conv1", dnn::randomQWeights(wrng, m, c, k, k));
        mw.emplace("head", dnn::randomQWeights(wrng, 2, m, 1, 1));
        auto in = dnn::randomQTensor(wrng, c, hw, hw);

        expectParity(net, mw, in, net.name);
    }
}

TEST(BackendParity, AvgPoolAndFcNetworks)
{
    Rng wrng(0xfc);
    dnn::Network net;
    net.name = "parity-avg-fc";
    net.stages.push_back(dnn::singleOpStage(
        "conv", dnn::conv("conv", 8, 8, 3, 3, 3, 4)));
    // 4x4 VALID average pool windows over the 8x8 SAME conv output
    // (2x2 stride 2 — a non-power-of-two window would also work but
    // 4-element windows exercise the in-array shift path).
    net.stages.push_back(dnn::singleOpStage(
        "avg", dnn::avgPool("avg", 8, 8, 4, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "fc", dnn::fullyConnected("fc", 4 * 4 * 4, 3)));

    core::ModelWeights mw;
    mw.emplace("conv", dnn::randomQWeights(wrng, 4, 3, 3, 3));
    mw.emplace("fc", dnn::randomQWeights(wrng, 3, 64, 1, 1));
    auto in = dnn::randomQTensor(wrng, 3, 8, 8);

    expectParity(net, mw, in, net.name);
}

TEST(BackendParity, OddAvgPoolWindowUsesRestoringDivide)
{
    Rng wrng(0x0dd);
    dnn::Network net;
    net.name = "parity-avg3";
    net.stages.push_back(dnn::singleOpStage(
        "conv", dnn::conv("conv", 9, 9, 2, 3, 3, 3)));
    // 3x3 window: 9 is not a power of two, so the bit-serial path
    // divides in-array (§IV-D) instead of shifting.
    net.stages.push_back(dnn::singleOpStage(
        "avg", dnn::avgPool("avg", 9, 9, 3, 3, 3, 3)));

    core::ModelWeights mw;
    mw.emplace("conv", dnn::randomQWeights(wrng, 3, 2, 3, 3));
    auto in = dnn::randomQTensor(wrng, 2, 9, 9);

    expectParity(net, mw, in, net.name);
}

TEST(BackendParity, IsaSamePadMaxPoolRunsOnBroadcastPath)
{
    // The max-pool fold program covers VALID and SAME windows alike:
    // SAME-padded edge windows just run shorter prefixes of it —
    // pinned here against the reference, through the engine and
    // through the executor directly.
    Rng wrng(0x5a3e);
    dnn::Network net;
    net.name = "parity-same-maxpool";
    net.stages.push_back(dnn::singleOpStage(
        "conv", dnn::conv("conv", 7, 7, 3, 3, 3, 4)));
    // 3x3 stride-2 SAME over 7x7: output 4x4, with partial windows on
    // the high edges.
    net.stages.push_back(dnn::singleOpStage(
        "pool", dnn::maxPool("pool", 7, 7, 4, 3, 3, 2, true)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 4, 1, 1, 2)));

    core::ModelWeights mw;
    mw.emplace("conv", dnn::randomQWeights(wrng, 4, 3, 3, 3));
    mw.emplace("head", dnn::randomQWeights(wrng, 2, 4, 1, 1));
    auto in = dnn::randomQTensor(wrng, 3, 7, 7);

    expectParity(net, mw, in, net.name);

    cache::ComputeCache cc;
    core::Executor ex(cc, 1u);
    auto pooled = ex.maxPool(in, 3, 3, 2, /*same_pad=*/true);
    auto want = dnn::maxPoolQuant(in, 3, 3, 2, true);
    EXPECT_EQ(pooled.data(), want.data());
}

TEST(BackendParity, AnalyticMacCyclesMatchFunctionalMeasurement)
{
    // On a single-window conv the functional executor's lock-step
    // cycles decompose exactly into zero + RxS MACs + reduction, and
    // the analytic model (Analytic arithmetic mode) prices the MAC
    // and reduction phases from the same closed forms.
    // 3x3 shapes only: for 1x1 filters the mapper packs channels
    // into the RS dimension (ft.effRS = C), a transform the simple
    // one-array executor mapping does not perform.
    struct Case
    {
        unsigned c, k;
    } cases[] = {{16, 3}, {4, 3}, {32, 3}};

    for (const auto &[c, k] : cases) {
        Rng rng(c * 100 + k);
        cache::ComputeCache cc;
        core::Executor ex(cc);
        auto in = dnn::randomQTensor(rng, c, k, k);
        auto w = dnn::randomQWeights(rng, 1, c, k, k);
        unsigned oh, ow;
        ex.conv(in, w, 1, false, oh, ow);
        ASSERT_EQ(oh * ow, 1u);

        unsigned lanes = static_cast<unsigned>(roundUpPow2(c));
        unsigned red_bits = 24 + log2Ceil(lanes);
        uint64_t mac_cycles =
            uint64_t(k) * k * bitserial::implMacScratchCycles(8, 24);
        uint64_t expect =
            bitserial::implCopyCycles(red_bits) + mac_cycles +
            bitserial::implReduceSumCycles(24, lanes, 2);
        EXPECT_EQ(ex.lockstepCycles(), expect) << c << "x" << k;

        core::CostConfig cfg;
        cfg.mode = core::ArithMode::Analytic;
        core::CostModel model(cc.geometry(), cfg);
        auto op = dnn::conv("probe", k, k, c, k, k, 1, 1, false).conv;
        auto plan = mapping::planConv(op, cc.geometry());
        ASSERT_EQ(plan.ft.effRS, k * k) << c << "x" << k;
        EXPECT_DOUBLE_EQ(model.macCyclesPerConv(plan),
                         static_cast<double>(mac_cycles))
            << c << "x" << k;
    }
}

} // namespace
