/**
 * @file
 * Property harness for the static program verifier: every randomized
 * net the parity suites generate must compile — in every backend —
 * with the verifier running unconditionally inside Engine::compile,
 * and the compile must prove at least one program per placed model.
 * Compile success IS the bit-exactness property: the verifier fatals
 * on any cycle-sum / CostModel divergence, so a passing compile
 * proves every layer program's static account matches the analytic
 * charge. Both residency regimes are pinned (whole-net resident on
 * the 35MB geometry, streaming on a 6-array one).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "core/engine.hh"
#include "core/program_verify.hh"

#include "branch_nets.hh"

namespace
{

using namespace nc;
using core::BackendKind;

std::vector<dnn::Network>
randomNets()
{
    Rng rng(0x7e51);
    std::vector<dnn::Network> nets;
    for (unsigned s = 0; s < 3; ++s)
        nets.push_back(testnets::randomMixedNet(
            "verify-mixed-" + std::to_string(s), 5, 2 + s, rng));
    nets.push_back(testnets::residualNet("verify-residual", 6, 3, 5, 1));
    nets.push_back(
        testnets::residualNet("verify-residual-s2", 8, 2, 4, 2));
    return nets;
}

TEST(VerifyProperties, EveryRandomizedNetVerifiesInEveryBackend)
{
    for (const dnn::Network &net : randomNets()) {
        for (BackendKind kind :
             {BackendKind::Functional, BackendKind::Analytic,
              BackendKind::Reference}) {
            core::EngineOptions opts;
            opts.backend = kind;
            opts.threads = 2;
            // compile() fatals if any layer program fails any of the
            // five check classes — reaching the assertions below is
            // the property.
            auto model = core::Engine(opts).compile(net);
            if (kind != BackendKind::Reference) {
                EXPECT_GT(model.programsVerified(), 0u)
                    << net.name << " / "
                    << core::backendKindName(kind);
            }
            auto rep = model.report(1);
            EXPECT_EQ(rep.programsVerified, model.programsVerified())
                << net.name;
            EXPECT_GE(rep.verifyMs, 0.0) << net.name;
        }
    }
}

TEST(VerifyProperties, PerLayerReportsCoverEveryProgram)
{
    // Drive the analytic walker directly with the reports sink: one
    // report per verified program, each with a non-trivial stats
    // block (the lint CLI renders exactly this).
    core::NeuralCacheConfig cfg;
    for (const dnn::Network &net : randomNets()) {
        std::vector<core::verify::LayerProgramReport> reports;
        core::verify::VerifySummary sum =
            core::verify::verifyNetworkProgramsOrDie(net, cfg,
                                                     &reports);
        EXPECT_EQ(sum.programsVerified, reports.size()) << net.name;
        EXPECT_GT(reports.size(), 0u) << net.name;
        for (const auto &r : reports) {
            EXPECT_GT(r.stats.instructions, 0u) << r.layer;
            EXPECT_GT(r.stats.staticCycles, 0u) << r.layer;
            EXPECT_GT(r.stats.maxLiveRows, 0u) << r.layer;
            EXPECT_FALSE(r.kind.empty()) << r.layer;
        }
    }
}

TEST(VerifyProperties, StreamingRegimeCompilesVerified)
{
    // 6 arrays force the streaming regime: bands time-share across
    // stages, and the verifier must still prove every program against
    // the epoch-audited placement.
    dnn::Network net;
    net.name = "verify-streaming";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 6, 6, 3, 3, 3, 4)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 6, 6, 4, 1, 1, 3)));

    core::EngineOptions opts;
    opts.config.geometry.slices = 1;
    opts.config.geometry.waysPerSlice = 6;
    opts.config.geometry.banksPerWay = 1;
    opts.config.geometry.subarraysPerBank = 1;
    opts.config.geometry.arraysPerSubarray = 1;
    opts.backend = BackendKind::Functional;
    opts.threads = 2;
    auto model = core::Engine(opts).compile(net);
    ASSERT_FALSE(model.batchBands().resident);
    EXPECT_GT(model.programsVerified(), 0u);
}

TEST(VerifyProperties, ResidentRegimeCompilesVerified)
{
    dnn::Network net = testnets::residualNet("verify-resident", 6, 3,
                                             5, 1);
    core::EngineOptions opts;
    opts.backend = BackendKind::Functional;
    opts.threads = 2;
    auto model = core::Engine(opts).compile(net);
    ASSERT_TRUE(model.batchBands().resident);
    EXPECT_GT(model.programsVerified(), 0u);
}

} // namespace
