/**
 * @file
 * Property harness for the band-plan auditor and the ownership race
 * detector: every randomized net the branch/batch parity suites
 * generate must compile into a plan the auditor proves disjoint — in
 * every backend — and running batches of every size through that plan
 * (with the debug ownership detector armed) must neither trip the
 * detector nor disturb the audited placement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "core/engine.hh"
#include "dnn/random.hh"
#include "mapping/plan_audit.hh"

#include "branch_nets.hh"

namespace
{

using namespace nc;
using core::BackendKind;

std::vector<dnn::QTensor>
randomBatch(unsigned n, unsigned c, unsigned hw, uint64_t seed)
{
    Rng rng(seed);
    std::vector<dnn::QTensor> batch;
    batch.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        batch.push_back(dnn::randomQTensor(rng, c, hw, hw));
    return batch;
}

TEST(PlanAuditProperties, EveryRandomizedNetAuditsCleanInEveryBackend)
{
    Rng rng(0xa0d1);
    std::vector<dnn::Network> nets;
    for (unsigned s = 0; s < 3; ++s)
        nets.push_back(testnets::randomMixedNet(
            "audit-mixed-" + std::to_string(s), 5, 2 + s, rng));
    nets.push_back(testnets::residualNet("audit-residual", 6, 3, 5, 1));
    nets.push_back(
        testnets::residualNet("audit-residual-s2", 8, 2, 4, 2));

    for (const dnn::Network &net : nets) {
        for (BackendKind kind :
             {BackendKind::Functional, BackendKind::Reference}) {
            core::EngineOptions opts;
            opts.backend = kind;
            opts.threads = 3;
            auto model = core::Engine(opts).compile(net);
            // Engine::compile already runs auditPlanOrDie — this
            // re-audits through the reporting API so a regression
            // yields a readable summary instead of process death.
            mapping::AuditReport rep = mapping::auditPlan(model);
            EXPECT_TRUE(rep.ok())
                << net.name << " / " << core::backendKindName(kind)
                << ": " << rep.summary();
            if (kind != BackendKind::Reference) {
                EXPECT_GT(rep.rangesChecked, 0u)
                    << net.name << ": placed model audited no ranges";
            }
        }
    }
}

TEST(PlanAuditProperties, BatchRunsOfEverySizeKeepThePlanClean)
{
    Rng rng(0xa0d2);
    const dnn::Network nets[] = {
        testnets::randomMixedNet("audit-batch-mixed", 5, 2, rng),
        testnets::residualNet("audit-batch-residual", 6, 3, 5, 1),
    };

    for (const dnn::Network &net : nets) {
        core::EngineOptions opts;
        opts.backend = BackendKind::Functional;
        opts.threads = 3;
        auto model = core::Engine(opts).compile(net);
        auto before = mapping::auditPlan(model);
        ASSERT_TRUE(before.ok()) << net.name << ": "
                                 << before.summary();

        // Every batch size regime: single image, partial capacity,
        // and (for small footprints) multi-pass — each runBatch fans
        // images over the pool with the debug ownership detector
        // armed, so a claim violation aborts the test hard.
        for (unsigned batch : {1u, 2u, 7u}) {
            auto inputs =
                randomBatch(batch, model.inputChannels(),
                            model.inputHeight(), 0xb00 + batch);
            auto res = model.runBatch(inputs);
            ASSERT_EQ(res.outputs.size(), inputs.size())
                << net.name << " batch " << batch;
        }

        // Running batches must not have perturbed the audited plan.
        auto after = mapping::auditPlan(model);
        EXPECT_TRUE(after.ok()) << net.name << ": " << after.summary();
        EXPECT_EQ(after.rangesChecked, before.rangesChecked);
    }
}

TEST(PlanAuditProperties, StreamingRegimeBatchesAuditAndRunClean)
{
    // 6 arrays force the streaming regime: stages time-share bands,
    // so the audit's epoch/unit model (not plain disjointness) is
    // what proves this plan — and runBatch must still satisfy the
    // ownership detector while re-pinning bands per stage.
    dnn::Network net;
    net.name = "audit-streaming-batch";
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
    opts.threads = 3;
    auto model = core::Engine(opts).compile(net);
    ASSERT_FALSE(model.batchBands().resident);

    auto rep = mapping::auditPlan(model);
    ASSERT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.rangesChecked, 0u);

    for (unsigned batch : {1u, 3u}) {
        auto inputs = randomBatch(batch, 3, 6, 0x5c0 + batch);
        auto res = model.runBatch(inputs);
        ASSERT_EQ(res.outputs.size(), inputs.size()) << batch;
    }
    EXPECT_TRUE(mapping::auditPlan(model).ok());
}

} // namespace
