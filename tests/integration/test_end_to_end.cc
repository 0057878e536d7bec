/**
 * @file
 * End-to-end integration through the public compile-once / run-many
 * API: a small quantized CNN compiles into a CompiledModel, executes
 * entirely through bit-serial array operations, matches both the
 * reference pipeline and the legacy per-call entry points exactly,
 * and answers timing from the same call. This mirrors the paper's
 * trace-matching verification of its cycle-accurate simulator (§V).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/engine.hh"
#include "core/executor.hh"
#include "dnn/inception_v3.hh"
#include "dnn/random.hh"

namespace
{

using namespace nc;

/** conv(3x3, 6->4, SAME) -> maxpool(2x2/2) -> conv(1x1, 4->2). */
dnn::Network
integrationNet()
{
    dnn::Network net;
    net.name = "integration-cnn";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 6, 3, 3, 4)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 8, 8, 4, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 4, 1, 1, 2)));
    return net;
}

core::ModelWeights
integrationWeights(Rng &rng)
{
    core::ModelWeights mw;
    mw.emplace("conv1",
               dnn::randomQWeights(
                   rng, 4, 6, 3, 3,
                   dnn::QuantParams::fromRange(-0.5f, 0.5f)));
    mw.emplace("head",
               dnn::randomQWeights(
                   rng, 2, 4, 1, 1,
                   dnn::QuantParams::fromRange(-0.5f, 0.5f)));
    return mw;
}

TEST(EndToEnd, CompiledModelBitExactAgainstReferencePipeline)
{
    Rng rng(2024);
    auto net = integrationNet();
    auto mw = integrationWeights(rng);
    auto img = dnn::randomQTensor(
        rng, 6, 8, 8, dnn::QuantParams::fromRange(0.f, 1.f));

    core::Engine engine;
    auto model = engine.compile(net, mw);
    auto got = model.run(img);

    // The same pipeline, step by step, through the reference
    // executors plus the engine's compile-time requant scalars.
    const auto *l1 = model.findLayer("conv1");
    const auto *l2 = model.findLayer("head");
    ASSERT_NE(l1, nullptr);
    ASSERT_NE(l2, nullptr);

    unsigned rh, rw;
    auto acc_ref = dnn::convQuantUnsigned(img, mw.at("conv1"), 1,
                                          true, rh, rw);
    dnn::QTensor a1(4, rh, rw);
    for (size_t i = 0; i < acc_ref.size(); ++i) {
        uint64_t t = (uint64_t(acc_ref[i]) * l1->requantMult) >>
                     l1->requantShift;
        a1.data()[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }
    auto p_ref = dnn::maxPoolQuant(a1, 2, 2, 2, false);
    auto acc2_ref = dnn::convQuantUnsigned(p_ref, mw.at("head"), 1,
                                           true, rh, rw);
    std::vector<uint8_t> want(acc2_ref.size());
    for (size_t i = 0; i < acc2_ref.size(); ++i) {
        uint64_t t = (uint64_t(acc2_ref[i]) * l2->requantMult) >>
                     l2->requantShift;
        want[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }

    EXPECT_EQ(got.output.data(), want);

    // The whole pipeline really ran in the arrays.
    ASSERT_NE(model.computeCache(), nullptr);
    EXPECT_GT(model.computeCache()->lockstepCycles(), 0u);
    EXPECT_GT(model.computeCache()->materializedCount(), 0u);
}

TEST(EndToEnd, CompileOnceRunManyMatchesLegacyPerCallApi)
{
    Rng rng(2031);
    auto net = integrationNet();
    auto mw = integrationWeights(rng);
    auto img = dnn::randomQTensor(rng, 6, 8, 8);

    core::Engine engine;
    auto model = engine.compile(net, mw);

    // Run the compiled model repeatedly: bit-identical every time.
    auto r1 = model.run(img);
    auto r2 = model.run(img);
    auto r3 = model.run(img);
    EXPECT_EQ(r1.output.data(), r2.output.data());
    EXPECT_EQ(r1.output.data(), r3.output.data());

    // And identical to the legacy per-call API wiring the three old
    // entry points together by hand (which re-streams filters and
    // re-derives layouts on every call — the cost the new API
    // amortizes away).
    const auto *l1 = model.findLayer("conv1");
    const auto *l2 = model.findLayer("head");
    cache::ComputeCache cc;
    core::Executor ex(cc);
    unsigned oh, ow;
    auto acc1 = ex.conv(img, mw.at("conv1"), 1, true, oh, ow);
    auto b1 = ex.requantize(acc1, l1->requantMult, l1->requantShift);
    dnn::QTensor a1(4, oh, ow);
    a1.data() = b1;
    auto p1 = ex.maxPool(a1, 2, 2, 2, false);
    auto acc2 = ex.conv(p1, mw.at("head"), 1, true, oh, ow);
    auto b2 = ex.requantize(acc2, l2->requantMult, l2->requantShift);
    EXPECT_EQ(r1.output.data(), b2);
}

TEST(EndToEnd, TimingAndFunctionModelsAgreeOnMacCost)
{
    // The analytic cost model's per-conv MAC cycles must equal what
    // the functional executor actually spends on one window's MACs.
    Rng rng(7);
    cache::ComputeCache cc;
    core::Executor ex(cc);

    auto img = dnn::randomQTensor(rng, 16, 3, 3);
    auto w = dnn::randomQWeights(rng, 1, 16, 3, 3);
    unsigned oh, ow;
    ex.conv(img, w, 1, false, oh, ow); // single 3x3 window
    ASSERT_EQ(oh * ow, 1u);

    core::CostConfig cfg;
    cfg.mode = core::ArithMode::Analytic;
    core::CostModel model(cc.geometry(), cfg);
    auto op = dnn::conv("probe", 3, 3, 16, 3, 3, 1, 1, false).conv;
    auto plan = mapping::planConv(op, cc.geometry());

    uint64_t mac_cycles = 9 * bitserial::implMacScratchCycles(8, 24);
    EXPECT_DOUBLE_EQ(model.macCyclesPerConv(plan),
                     double(mac_cycles));
    // Executor adds zeroing + reduction on top of the MACs.
    EXPECT_GT(ex.lockstepCycles(), mac_cycles);
}

TEST(EndToEnd, WholeStackRunsOnInceptionStem)
{
    // The first real Inception layer shape (scaled down spatially to
    // keep the functional simulation fast) through the functional
    // engine, and the full Inception v3 through the analytic engine.
    Rng rng(31);
    dnn::Network stem;
    stem.name = "inception-stem";
    stem.stages.push_back(dnn::singleOpStage(
        "Conv2d_1a_3x3",
        dnn::conv("Conv2d_1a_3x3", 9, 9, 3, 3, 3, 8, 2, false)));

    core::ModelWeights mw;
    mw.emplace("Conv2d_1a_3x3", dnn::randomQWeights(rng, 8, 3, 3, 3));
    auto img = dnn::randomQTensor(rng, 3, 9, 9);

    core::Engine engine;
    auto model = engine.compile(stem, mw);
    auto got = model.run(img);

    unsigned rh, rw;
    auto acc = dnn::convQuantUnsigned(img, mw.at("Conv2d_1a_3x3"), 2,
                                      false, rh, rw);
    const auto *l = model.findLayer("Conv2d_1a_3x3");
    ASSERT_NE(l, nullptr);
    std::vector<uint8_t> want(acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
        uint64_t t =
            (uint64_t(acc[i]) * l->requantMult) >> l->requantShift;
        want[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }
    EXPECT_EQ(got.output.data(), want);

    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    auto full = core::Engine(opts).compile(dnn::inceptionV3());
    auto rep = full.report();
    EXPECT_GT(rep.latencyMs(), 1.0);
    EXPECT_LT(rep.latencyMs(), 20.0);
}

} // namespace
