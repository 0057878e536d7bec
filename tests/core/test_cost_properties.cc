/** @file Property tests: invariants the cost model must respect. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/engine.hh"
#include "dnn/inception_v3.hh"
#include "dnn/models_extra.hh"

namespace
{

using namespace nc;
using core::NeuralCacheConfig;

/** Compile @p net on an analytic engine configured with @p cfg. */
core::CompiledModel
analyticModel(const dnn::Network &net, const NeuralCacheConfig &cfg = {})
{
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    opts.config = cfg;
    return core::Engine(opts).compile(net);
}

/** Random-but-plausible conv shapes for sweeps. */
dnn::ConvOp
randomConv(Rng &rng)
{
    static const unsigned ch[] = {3, 16, 32, 48, 64, 128, 192, 256,
                                  384, 512, 768, 1024, 2048};
    static const unsigned fs[] = {1, 3, 5, 7};
    dnn::ConvOp op;
    op.name = "rand";
    op.h = op.w = static_cast<unsigned>(rng.uniformInt(4, 64));
    op.c = ch[rng.uniformInt(0, 12)];
    op.r = fs[rng.uniformInt(0, 3)];
    op.s = fs[rng.uniformInt(0, 3)];
    op.m = static_cast<unsigned>(rng.uniformInt(1, 512));
    op.stride = static_cast<unsigned>(rng.uniformInt(1, 2));
    op.samePad = true;
    return op;
}

class CostSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CostSweep, ConvCostsArePositiveAndFinite)
{
    Rng rng(GetParam());
    core::CostModel model(cache::Geometry::xeonE5_35MB());
    for (int t = 0; t < 10; ++t) {
        dnn::ConvOp op = randomConv(rng);
        core::StageCost c = model.convCost(op);
        EXPECT_GT(c.totalPs(), 0.0) << op.c << "x" << op.r;
        EXPECT_TRUE(std::isfinite(c.totalPs()));
        EXPECT_GE(c.serialPasses, 1u);
        EXPECT_LE(c.utilization, 1.0);
        EXPECT_GT(c.utilization, 0.0);
        EXPECT_GT(c.activeArrayCycles, 0u);
    }
}

TEST_P(CostSweep, MoreSlicesNeverSlower)
{
    Rng rng(1000 + GetParam());
    core::CostModel m35(cache::Geometry::xeonE5_35MB());
    core::CostModel m60(cache::Geometry::scaled60MB());
    for (int t = 0; t < 10; ++t) {
        dnn::ConvOp op = randomConv(rng);
        double t35 = m35.convCost(op).totalPs();
        double t60 = m60.convCost(op).totalPs();
        EXPECT_LE(t60, t35 * 1.001)
            << op.c << "ch " << op.r << "x" << op.s << " m" << op.m;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostSweep, ::testing::Range(0, 5));

TEST(CostProperties, LatencyScalesInverselyWithComputeClock)
{
    auto net = dnn::inceptionV3();
    NeuralCacheConfig slow, fast;
    slow.cost.timing.computeClock.freqHz = 1.25e9;
    fast.cost.timing.computeClock.freqHz = 2.5e9;
    auto s = analyticModel(net, slow).report();
    auto f = analyticModel(net, fast).report();
    // Arithmetic phases exactly halve; movement phases are
    // clock-independent here (bus modeled separately).
    EXPECT_NEAR(s.phases.macPs, 2.0 * f.phases.macPs,
                f.phases.macPs * 1e-9);
    EXPECT_LT(f.latencyMs(), s.latencyMs());
}

TEST(CostProperties, FasterDramOnlyShrinksFilterPhase)
{
    auto net = dnn::inceptionV3();
    NeuralCacheConfig base, fast;
    fast.dram.effectiveBw.bytesPerSec = 40e9;
    auto b = analyticModel(net, base).report();
    auto f = analyticModel(net, fast).report();
    EXPECT_LT(f.phases.filterLoadPs, b.phases.filterLoadPs);
    EXPECT_NEAR(f.phases.macPs, b.phases.macPs, 1.0);
    EXPECT_NEAR(f.phases.reducePs, b.phases.reducePs, 1.0);
}

TEST(CostProperties, BatchLatencyMonotoneInBatchSize)
{
    auto net = dnn::inceptionV3();
    auto model = analyticModel(net);
    double prev = 0;
    for (unsigned b : {1u, 2u, 4u, 8u, 16u, 32u}) {
        double ms = model.report(b).batchMs();
        EXPECT_GT(ms, prev) << "batch " << b;
        prev = ms;
    }
}

TEST(CostProperties, ThroughputBoundedByArithmeticFloor)
{
    // Even infinitely amortized, per-image time can't drop below the
    // arithmetic + streaming floor; throughput stays finite.
    auto net = dnn::inceptionV3();
    double thr = analyticModel(net).report(512).throughput();
    EXPECT_LT(thr, 2000.0);
    EXPECT_GT(thr, 100.0);
}

TEST(CostProperties, OverlapNeverHurts)
{
    for (const dnn::Network &net :
         {dnn::inceptionV3(), dnn::alexNet(), dnn::vgg16()}) {
        NeuralCacheConfig serial_cfg, overlap_cfg;
        overlap_cfg.cost.overlapInputStream = true;
        double s = analyticModel(net, serial_cfg).report().latencyMs();
        double o = analyticModel(net, overlap_cfg).report().latencyMs();
        EXPECT_LE(o, s * 1.0001) << net.name;
    }
}

TEST(CostProperties, EveryPhaseNonNegativeAcrossModels)
{
    for (const dnn::Network &net :
         {dnn::inceptionV3(), dnn::alexNet(), dnn::vgg16()}) {
        auto rep = analyticModel(net).report();
        const auto &p = rep.phases;
        for (double v : {p.filterLoadPs, p.inputStreamPs,
                         p.outputXferPs, p.macPs, p.reducePs,
                         p.quantPs, p.poolPs})
            EXPECT_GE(v, 0.0) << net.name;
    }
}

} // namespace
