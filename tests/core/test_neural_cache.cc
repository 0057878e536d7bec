/**
 * @file
 * End-to-end latency/throughput reproduction checks: the paper's
 * targets, answered by an analytic Engine's compiled model.
 */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"

namespace
{

using namespace nc::core;
using nc::cache::Geometry;

/** Compile @p net on an analytic engine configured with @p cfg. */
CompiledModel
analyticModel(const nc::dnn::Network &net,
              const NeuralCacheConfig &cfg = {})
{
    EngineOptions opts;
    opts.backend = BackendKind::Analytic;
    opts.config = cfg;
    return Engine(opts).compile(net);
}

class NeuralCacheInception : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net = new nc::dnn::Network(nc::dnn::inceptionV3());
        model = new CompiledModel(analyticModel(*net));
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        model = nullptr;
        delete net;
        net = nullptr;
    }

    static nc::dnn::Network *net;
    /** Compiled once with the default configuration. */
    static CompiledModel *model;
};

nc::dnn::Network *NeuralCacheInception::net = nullptr;
CompiledModel *NeuralCacheInception::model = nullptr;

TEST_F(NeuralCacheInception, Batch1LatencyNearPaper)
{
    // Figure 15 / Table IV: 4.72 ms at 35 MB. We accept +-10%.
    auto rep = model->report();
    EXPECT_GT(rep.latencyMs(), 4.72 * 0.9);
    EXPECT_LT(rep.latencyMs(), 4.72 * 1.1);
}

TEST_F(NeuralCacheInception, BreakdownMatchesFigure14)
{
    // Figure 14 shares: filter 46%, input 15%, output 4%, MACs 20%,
    // reduction 10%, quantization 5%, pooling 0.04%.
    auto rep = model->report();
    double total = rep.phases.totalPs();
    auto pct = [&](double ps) { return 100.0 * ps / total; };

    EXPECT_NEAR(pct(rep.phases.filterLoadPs), 46.0, 6.0);
    EXPECT_NEAR(pct(rep.phases.inputStreamPs), 15.0, 6.0);
    EXPECT_NEAR(pct(rep.phases.outputXferPs), 4.0, 2.0);
    EXPECT_NEAR(pct(rep.phases.macPs), 20.0, 6.0);
    EXPECT_NEAR(pct(rep.phases.reducePs), 10.0, 6.0);
    EXPECT_NEAR(pct(rep.phases.quantPs), 5.0, 3.0);
    EXPECT_NEAR(pct(rep.phases.poolPs), 0.04, 0.1);
}

TEST_F(NeuralCacheInception, EnergyAndPowerNearTableIII)
{
    // Table III: 0.246 J, 52.92 W.
    auto rep = model->report();
    EXPECT_NEAR(rep.energy.totalJ(), 0.246, 0.03);
    EXPECT_NEAR(rep.avgPowerW(), 52.92, 6.0);
}

TEST_F(NeuralCacheInception, CapacityScalingMatchesTableIV)
{
    // Table IV: 35 -> 45 -> 60 MB gives 4.72 -> 4.12 -> 3.79 ms.
    // Filter loading is capacity-independent; compute and input
    // streaming shrink with added slices.
    NeuralCacheConfig c35, c45, c60;
    c45.geometry = Geometry::scaled45MB();
    c60.geometry = Geometry::scaled60MB();
    double t35 = analyticModel(*net, c35).report().latencyMs();
    double t45 = analyticModel(*net, c45).report().latencyMs();
    double t60 = analyticModel(*net, c60).report().latencyMs();

    EXPECT_LT(t45, t35);
    EXPECT_LT(t60, t45);
    // Paper ratios: 4.12/4.72 = 0.873, 3.79/4.72 = 0.803.
    EXPECT_NEAR(t45 / t35, 0.873, 0.06);
    EXPECT_NEAR(t60 / t35, 0.803, 0.08);
}

TEST_F(NeuralCacheInception, ThroughputCurveShape)
{
    // Figure 16: throughput rises with batch (filter amortization)
    // and plateaus; peak ~604 inf/s on the dual-socket node.
    double t1 = model->report(1).throughput();
    double t16 = model->report(16).throughput();
    double t256 = model->report(256).throughput();

    EXPECT_GT(t16, t1);
    // Batch-1 ~212 inf/s per socket (~424 dual).
    EXPECT_NEAR(t1 / 2.0, 212.0, 40.0);
    // Peak within 15% of 604.
    EXPECT_NEAR(std::max(t16, t256), 604.0, 90.0);
    // Plateau: the 16 -> 256 change is small compared to 1 -> 16.
    EXPECT_LT(std::abs(t256 - t16), std::abs(t16 - t1));
}

TEST_F(NeuralCacheInception, BatchingAmortizesFilterLoading)
{
    auto r1 = model->report(1);
    auto r8 = model->report(8);
    // Whole-batch time grows sublinearly.
    EXPECT_LT(r8.batchPs, 8.0 * r1.batchPs);
    // Spill appears only with batching.
    EXPECT_DOUBLE_EQ(r1.spillPs, 0.0);
    EXPECT_GT(r8.spillPs, 0.0);
}

TEST_F(NeuralCacheInception, SpeedupsOverBaselines)
{
    // Figure 15: 18.3x over the CPU (86 ms), 7.7x over the GPU.
    double nc_ms = model->report().latencyMs();
    EXPECT_NEAR(86.0 / nc_ms, 18.3, 2.5);
    EXPECT_NEAR((86.0 / 18.3 * 7.7) / nc_ms, 7.7, 1.0);
}

TEST_F(NeuralCacheInception, StagesCoverTableI)
{
    auto rep = model->report();
    ASSERT_EQ(rep.stages.size(), 20u);
    for (size_t i = 0; i < rep.stages.size(); ++i) {
        EXPECT_EQ(rep.stages[i].name, net->stages[i].name);
        EXPECT_GT(rep.stages[i].totalPs(), 0.0) << i;
    }
}

TEST(NeuralCacheSmall, TrivialNetworkRuns)
{
    nc::dnn::Network tiny;
    tiny.name = "tiny";
    tiny.stages.push_back(nc::dnn::singleOpStage(
        "conv", nc::dnn::conv("conv", 8, 8, 16, 3, 3, 8)));
    auto rep = analyticModel(tiny).report();
    EXPECT_GT(rep.latencyPs, 0.0);
    EXPECT_EQ(rep.stages.size(), 1u);
    EXPECT_EQ(rep.batch, 1u);
}

TEST(NeuralCacheSmall, ReportThroughputConsistency)
{
    nc::dnn::Network tiny;
    tiny.stages.push_back(nc::dnn::singleOpStage(
        "conv", nc::dnn::conv("conv", 8, 8, 16, 3, 3, 8)));
    NeuralCacheConfig cfg;
    cfg.sockets = 1;
    auto rep = analyticModel(tiny, cfg).report(4);
    EXPECT_NEAR(rep.throughput(),
                4.0 / (rep.batchPs * nc::picoToSec), 1e-6);
}

TEST_F(NeuralCacheInception, BatchReportCarriesPassStructure)
{
    // Full-resolution Inception v3 exceeds the cache (~19k arrays),
    // so the §IV-E banding puts it in the streaming regime: one
    // image slot, one pass per image — and the analytic report
    // agrees with the capacity arithmetic.
    auto rep = model->report(8);
    EXPECT_EQ(rep.imageSlots, 1u);
    EXPECT_EQ(rep.batchPasses, 8u);

    const auto &bands = model->batchBands();
    EXPECT_FALSE(bands.resident);
    EXPECT_GT(bands.filterArrays,
              uint64_t(model->config().geometry.totalArrays()));
}

} // namespace
