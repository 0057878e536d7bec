/**
 * @file
 * The compile-once / run-many Engine API: lifecycle, bit-identical
 * repeated runs, agreement with the legacy per-call entry points,
 * the compile artifacts, and hard errors on degenerate input.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/engine.hh"
#include "core/executor.hh"
#include "dnn/inception_v3.hh"
#include "dnn/random.hh"
#include "mapping/weight_layout.hh"

namespace
{

using namespace nc;
using core::BackendKind;

/** conv(3x3, 3->4, SAME) -> maxpool(2x2/2) -> conv(1x1, 4->2). */
dnn::Network
tinyNet()
{
    dnn::Network net;
    net.name = "tiny-cnn";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, 4)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 8, 8, 4, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 4, 1, 1, 2)));
    return net;
}

/**
 * A compiled conv layer's §IV-C DRAM image, built on demand from the
 * artifacts compile keeps (op, plan, weights).
 */
std::vector<uint8_t>
dramImageOf(const core::CompiledModel &model,
            const core::CompiledLayer &layer)
{
    return mapping::WeightLayout(layer.op.conv, layer.plan,
                                 model.config().geometry)
        .dramImage(layer.weights);
}

core::ModelWeights
tinyWeights(uint64_t seed)
{
    Rng rng(seed);
    core::ModelWeights mw;
    mw.emplace("conv1", dnn::randomQWeights(rng, 4, 3, 3, 3));
    mw.emplace("head", dnn::randomQWeights(rng, 2, 4, 1, 1));
    return mw;
}

TEST(Engine, RepeatedRunsAreBitIdenticalAndSkipCompileWork)
{
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));
    ASSERT_TRUE(model.functional());

    Rng rng(21);
    auto in = dnn::randomQTensor(rng, 3, 8, 8);

    auto r1 = model.run(in);
    uint64_t cycles_run1 = model.computeCache()->lockstepCycles();
    auto r2 = model.run(in);

    EXPECT_EQ(r1.output.data(), r2.output.data());
    EXPECT_EQ(r1.output.channels(), 2u);
    // Run 2 did exactly the same amount of array work as run 1 —
    // i.e. no filter re-streaming, no re-planning on top.
    EXPECT_EQ(model.computeCache()->lockstepCycles(),
              2 * cycles_run1);

    // Different input, same compiled filters: still deterministic.
    auto in2 = dnn::randomQTensor(rng, 3, 8, 8);
    auto r3 = model.run(in2);
    auto r4 = model.run(in2);
    EXPECT_EQ(r3.output.data(), r4.output.data());
}

TEST(Engine, MatchesLegacyPerCallApiBitExactly)
{
    auto net = tinyNet();
    auto mw = tinyWeights(7);
    core::Engine engine;
    auto model = engine.compile(net, mw);

    Rng rng(33);
    auto in = dnn::randomQTensor(rng, 3, 8, 8);
    auto got = model.run(in);

    // The same pipeline through the legacy per-call entry points,
    // using the engine's compile-time requantization scalars.
    const auto *l1 = model.findLayer("conv1");
    const auto *l2 = model.findLayer("head");
    ASSERT_NE(l1, nullptr);
    ASSERT_NE(l2, nullptr);

    cache::ComputeCache cc;
    core::Executor ex(cc);
    unsigned oh, ow;
    auto acc1 = ex.conv(in, mw.at("conv1"), 1, true, oh, ow);
    auto b1 = ex.requantize(acc1, l1->requantMult, l1->requantShift);
    dnn::QTensor a1(4, oh, ow);
    a1.data() = b1;
    auto p1 = ex.maxPool(a1, 2, 2, 2, false);
    auto acc2 = ex.conv(p1, mw.at("head"), 1, true, oh, ow);
    auto b2 = ex.requantize(acc2, l2->requantMult, l2->requantShift);

    EXPECT_EQ(got.output.data(), b2);
}

TEST(Engine, RunBatchSharesStationaryFilters)
{
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));

    Rng rng(5);
    std::vector<dnn::QTensor> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(dnn::randomQTensor(rng, 3, 8, 8));

    auto res = model.runBatch(batch);
    ASSERT_EQ(res.outputs.size(), 3u);
    EXPECT_EQ(res.report.batch, 3u);

    // Each batch element equals its individual run.
    for (size_t i = 0; i < batch.size(); ++i) {
        auto single = model.run(batch[i]);
        EXPECT_EQ(res.outputs[i].data(), single.output.data()) << i;
    }
}

TEST(Engine, ReportCarriesAnalyticAnswerOnFunctionalRuns)
{
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));

    Rng rng(5);
    auto res = model.run(dnn::randomQTensor(rng, 3, 8, 8));

    // One call yields both the tensors and the timing/energy report,
    // and the report matches an analytic compile of the same network
    // exactly.
    core::EngineOptions opts;
    opts.backend = BackendKind::Analytic;
    auto want = core::Engine(opts).compile(tinyNet()).report();
    EXPECT_DOUBLE_EQ(res.report.latencyPs, want.latencyPs);
    EXPECT_DOUBLE_EQ(res.report.energy.totalJ(), want.energy.totalJ());
    EXPECT_GT(res.report.latencyPs, 0.0);
}

TEST(Engine, AnalyticReportMatchesPerCallPricing)
{
    auto net = dnn::inceptionV3();

    core::EngineOptions opts;
    opts.backend = BackendKind::Analytic;
    core::Engine engine(opts);
    auto model = engine.compile(net);
    EXPECT_FALSE(model.functional());

    // The compiled report must equal pricing every stage afresh on
    // each call, which is the work compile caches.
    core::AnalyticBackend analytic(model.config());
    for (unsigned batch : {1u, 8u, 64u}) {
        std::vector<core::StageCost> repriced;
        for (const auto &stage : net.stages)
            repriced.push_back(analytic.stageCost(stage));
        auto got = model.report(batch);
        auto want = analytic.report(net, repriced, batch);
        EXPECT_DOUBLE_EQ(got.latencyPs, want.latencyPs) << batch;
        EXPECT_DOUBLE_EQ(got.batchPs, want.batchPs) << batch;
        EXPECT_DOUBLE_EQ(got.spillPs, want.spillPs) << batch;
        EXPECT_DOUBLE_EQ(got.energy.totalJ(), want.energy.totalJ())
            << batch;
        ASSERT_EQ(got.stages.size(), want.stages.size());
        for (size_t i = 0; i < got.stages.size(); ++i)
            EXPECT_DOUBLE_EQ(got.stages[i].totalPs(),
                             want.stages[i].totalPs())
                << batch << ":" << i;
    }
}

TEST(Engine, FullyConnectedFlattensActivations)
{
    dnn::Network net;
    net.name = "conv-fc";
    net.stages.push_back(dnn::singleOpStage(
        "conv", dnn::conv("conv", 4, 4, 2, 3, 3, 3)));
    net.stages.push_back(dnn::singleOpStage(
        "fc", dnn::fullyConnected("fc", 3 * 4 * 4, 5)));

    core::Engine engine;
    auto model = engine.compile(net);

    Rng rng(3);
    auto res = model.run(dnn::randomQTensor(rng, 2, 4, 4));
    EXPECT_EQ(res.output.channels(), 5u);
    EXPECT_EQ(res.output.height(), 1u);
    EXPECT_EQ(res.output.width(), 1u);
}

TEST(Engine, SeededWeightsAreDeterministic)
{
    auto net = tinyNet();
    Rng rng(9);
    auto in = dnn::randomQTensor(rng, 3, 8, 8);

    core::Engine a, b;
    auto ra = a.compile(net).run(in);
    auto rb = b.compile(net).run(in);
    EXPECT_EQ(ra.output.data(), rb.output.data());

    core::EngineOptions opts;
    opts.weightSeed = 1234;
    auto rc = core::Engine(opts).compile(net).run(in);
    EXPECT_NE(rc.output.data(), ra.output.data());

    // Compile prepares the per-layer banks, plans and requant scalars
    // in parallel; the artifacts, and the DRAM images built from
    // them, must not depend on the thread count. Plain, split,
    // packed, multi-array and FC layers.
    dnn::Network chain;
    chain.name = "conv-chain";
    for (auto op : {dnn::conv("plain", 8, 8, 16, 3, 3, 32),
                    dnn::conv("split", 8, 8, 32, 5, 5, 48),
                    dnn::conv("packed", 8, 8, 48, 1, 1, 320),
                    dnn::conv("wide", 8, 8, 320, 7, 1, 16),
                    dnn::fullyConnected("fc", 16 * 8 * 8, 10)})
        chain.stages.push_back(dnn::singleOpStage(op.name(), op));
    std::vector<core::CompiledModel> models;
    for (unsigned threads : {1u, 4u}) {
        core::EngineOptions to;
        to.threads = threads;
        models.push_back(core::Engine(to).compile(chain));
    }
    const auto &serial = models[0].compiledLayers();
    const auto &parallel = models[1].compiledLayers();
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].op.name());
        const auto image = dramImageOf(models[0], serial[i]);
        EXPECT_FALSE(image.empty());
        EXPECT_EQ(serial[i].weights.data, parallel[i].weights.data);
        EXPECT_EQ(image, dramImageOf(models[1], parallel[i]));
        EXPECT_EQ(serial[i].requantMult, parallel[i].requantMult);
        EXPECT_EQ(serial[i].requantShift, parallel[i].requantShift);
    }
}

TEST(Engine, CompileExposesMappingAndLayoutArtifacts)
{
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));

    const auto *l1 = model.findLayer("conv1");
    ASSERT_NE(l1, nullptr);
    // The §IV-C transposed DRAM image covers every filter byte.
    EXPECT_EQ(dramImageOf(model, *l1).size(), size_t(4) * 3 * 3 * 3);
    EXPECT_GT(l1->plan.parallelConvs, 0u);
    EXPECT_GE(l1->requantShift, 1u);
    // Layers own disjoint array bands.
    const auto *l2 = model.findLayer("head");
    ASSERT_NE(l2, nullptr);
    EXPECT_GE(l2->baseArray, l1->baseArray + 4);
}

TEST(Engine, ReferenceBackendRunsShapesBeyondTheArrayMapping)
{
    // 300 channels exceed one array's 256 bit lines, so the
    // functional kernels cannot map this layer — but the reference
    // backend is CPU loops and must compile and run it (and reserve
    // no arrays doing so).
    dnn::Network net;
    net.name = "wide";
    net.stages.push_back(dnn::singleOpStage(
        "wide", dnn::conv("wide", 3, 3, 300, 3, 3, 2, 1, false)));

    Rng rng(17);
    core::ModelWeights mw;
    mw.emplace("wide", dnn::randomQWeights(rng, 2, 300, 3, 3));
    auto in = dnn::randomQTensor(rng, 300, 3, 3);

    core::EngineOptions opts;
    opts.backend = BackendKind::Reference;
    core::Engine engine(opts);
    auto model = engine.compile(net, mw);
    auto res = model.run(in);
    EXPECT_EQ(res.output.size(), 2u);
    EXPECT_EQ(model.computeCache()->materializedCount(), 0u);

    unsigned rh, rw;
    auto acc = dnn::convQuantUnsigned(in, mw.at("wide"), 1, false,
                                      rh, rw);
    const auto *l = model.findLayer("wide");
    std::vector<uint8_t> want(acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
        uint64_t t =
            (uint64_t(acc[i]) * l->requantMult) >> l->requantShift;
        want[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }
    EXPECT_EQ(res.output.data(), want);
}

TEST(Engine, ParseBackendKindRoundTrips)
{
    for (auto kind :
         {BackendKind::Reference, BackendKind::Functional,
          BackendKind::Analytic}) {
        BackendKind parsed;
        ASSERT_TRUE(
            core::parseBackendKind(core::backendKindName(kind),
                                   parsed));
        EXPECT_EQ(parsed, kind);
    }
    BackendKind parsed;
    EXPECT_FALSE(core::parseBackendKind("gpu", parsed));
    EXPECT_FALSE(core::parseBackendKind("", parsed));
    // The broadcast-ISA backend is gone: its streams are the
    // functional kernels' own.
    EXPECT_FALSE(core::parseBackendKind("isa", parsed));
}

using EngineDeath = ::testing::Test;

TEST(EngineDeath, CompileRejectsEmptyNetwork)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    dnn::Network empty;
    empty.name = "empty";
    core::Engine engine;
    EXPECT_DEATH((void)engine.compile(empty), "empty network");
}

TEST(EngineDeath, CompileRejectsShapeMismatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    dnn::Network net;
    net.name = "mismatch";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, 4)));
    // Claims 6 input channels; conv1 produces 4.
    net.stages.push_back(dnn::singleOpStage(
        "conv2", dnn::conv("conv2", 8, 8, 6, 3, 3, 4)));
    core::Engine engine;
    EXPECT_DEATH((void)engine.compile(net), "expects");
}

/** A one-stage network holding just @p op. */
dnn::Network
singleOpNet(dnn::Op op)
{
    dnn::Network net;
    net.name = "degenerate";
    net.stages.push_back(dnn::singleOpStage(op.name(), std::move(op)));
    return net;
}

/**
 * Every degenerate pool shape dies at compile on @p kind, naming the
 * layer, before any backend-specific work: zero channels (max and
 * avg), zero input extents, a 2x0 and a 0x2 window, stride 0.
 */
void
expectDegeneratePoolsRejected(BackendKind kind)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::EngineOptions opts;
    opts.backend = kind;
    core::Engine engine(opts);
    const dnn::Op pools[] = {
        dnn::maxPool("p", 4, 4, 0, 2, 2, 2),
        dnn::avgPool("p", 4, 4, 0, 2, 2, 2),
        dnn::maxPool("p", 0, 4, 3, 2, 2, 2),
        dnn::avgPool("p", 4, 0, 3, 2, 2, 2),
        dnn::avgPool("p", 4, 4, 3, 2, 0, 1),
        dnn::maxPool("p", 4, 4, 3, 0, 2, 1),
        dnn::maxPool("p", 4, 4, 3, 2, 2, 0),
    };
    for (const dnn::Op &op : pools) {
        const dnn::PoolOp &po = op.pool;
        SCOPED_TRACE(testing::Message()
                     << (po.isAvg ? "avg " : "max ") << po.c << "x"
                     << po.h << "x" << po.w << " window " << po.r
                     << "x" << po.s << " stride " << po.stride);
        EXPECT_DEATH((void)engine.compile(singleOpNet(op)),
                     "pool 'p': degenerate shape");
    }
}

TEST(EngineDeath, CompileRejectsDegeneratePoolOnReference)
{
    expectDegeneratePoolsRejected(BackendKind::Reference);
}

TEST(EngineDeath, CompileRejectsDegeneratePoolOnFunctional)
{
    expectDegeneratePoolsRejected(BackendKind::Functional);
}

TEST(EngineDeath, CompileRejectsDegeneratePoolOnAnalytic)
{
    expectDegeneratePoolsRejected(BackendKind::Analytic);
}

TEST(EngineDeath, CompileRejectsDegenerateConvOnEveryBackend)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (BackendKind kind : {BackendKind::Reference,
                             BackendKind::Functional,
                             BackendKind::Analytic}) {
        SCOPED_TRACE(core::backendKindName(kind));
        core::EngineOptions opts;
        opts.backend = kind;
        core::Engine engine(opts);
        // No output channels, a zero-width filter, stride 0.
        for (const dnn::Op &op : {dnn::conv("c", 4, 4, 3, 3, 3, 0),
                                  dnn::conv("c", 4, 4, 3, 3, 0, 2),
                                  dnn::conv("c", 4, 4, 3, 3, 3, 2, 0)})
            EXPECT_DEATH((void)engine.compile(singleOpNet(op)),
                         "conv 'c': degenerate shape");
    }
}

TEST(EngineDeath, CompileRejectsTypoedWeightBank)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(7);
    core::ModelWeights mw;
    mw.emplace("conv_1", dnn::randomQWeights(rng, 4, 3, 3, 3));
    core::Engine engine;
    EXPECT_DEATH((void)engine.compile(tinyNet(), mw),
                 "not a conv/fc layer");
}

TEST(EngineDeath, RunBatchRejectsEmptyBatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));
    EXPECT_DEATH((void)model.runBatch({}), "empty batch");
}

TEST(EngineDeath, RunBatchNamesOffendingImageIndex)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));
    Rng rng(4);
    std::vector<dnn::QTensor> batch;
    batch.push_back(dnn::randomQTensor(rng, 3, 8, 8));
    batch.push_back(dnn::randomQTensor(rng, 3, 8, 8));
    batch.push_back(dnn::randomQTensor(rng, 5, 8, 8)); // wrong shape
    EXPECT_DEATH((void)model.runBatch(batch),
                 "batch input 2 is 5x8x8");
}

TEST(EngineDeath, RunBatchRejectsAbsurdBatchSize)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));
    // One over the ceiling: the size check fires before any image is
    // validated or executed (all inputs share one tiny tensor).
    std::vector<dnn::QTensor> batch(
        size_t(core::CompiledModel::kMaxBatch) + 1,
        dnn::QTensor(3, 8, 8));
    EXPECT_DEATH((void)model.runBatch(batch), "exceeds the");
}

TEST(EngineDeath, ReportRejectsBatchZeroAndAbsurdBatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::EngineOptions opts;
    opts.backend = BackendKind::Analytic;
    core::Engine engine(opts);
    auto model = engine.compile(tinyNet());
    EXPECT_DEATH((void)model.report(0), "batch 0");
    EXPECT_DEATH(
        (void)model.report(core::CompiledModel::kMaxBatch + 1),
        "exceeds the");
    // The boundary itself is legal.
    EXPECT_GT(model.report(core::CompiledModel::kMaxBatch).batchPs,
              0.0);
}

TEST(EngineDeath, RunRejectsWrongInputShape)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::Engine engine;
    auto model = engine.compile(tinyNet(), tinyWeights(7));
    Rng rng(2);
    auto bad = dnn::randomQTensor(rng, 5, 8, 8);
    EXPECT_DEATH((void)model.run(bad), "expects");
}

} // namespace
