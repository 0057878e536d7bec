/**
 * @file
 * End-to-end fault tolerance: BIST retirements at compile, the
 * runtime canary detect→retire→substitute→retry loop on run() and
 * runBatch(), the hard floors (retry budget, minimum capacity), and
 * the per-backend campaign rules — all proven bit-identical to the
 * fault-free reference wherever repair claims to succeed.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hh"
#include "core/engine.hh"
#include "dnn/random.hh"

namespace
{

using namespace nc;
using core::BackendKind;

dnn::Network
smallNet()
{
    dnn::Network net;
    net.name = "fault-recovery";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, 4)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 8, 8, 4, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 4, 1, 1, 3)));
    return net;
}

/** 96 arrays (1 slice x 6 ways x default bank fan-out): big enough
 * for replicas and spares, small enough to kill to the floor. */
core::EngineOptions
baseOpts()
{
    core::EngineOptions opts;
    opts.backend = BackendKind::Functional;
    opts.threads = 1;
    opts.config.geometry.slices = 1;
    opts.config.geometry.waysPerSlice = 6;
    return opts;
}

dnn::QTensor
image(uint64_t seed)
{
    Rng rng(seed);
    return dnn::randomQTensor(rng, 3, 8, 8);
}

TEST(FaultRecovery, BistRetiresDeadArraysBeforePlacement)
{
    auto net = smallNet();
    auto img = image(0x11);
    auto want = core::Engine(baseOpts()).compile(net).run(img);

    auto opts = baseOpts();
    opts.faults.killArrays = {0, 1, 2};
    auto model = core::Engine(opts).compile(net);
    EXPECT_TRUE(model.canaryArmed());
    EXPECT_EQ(model.computeCache()->usableArrays(), 93u);

    auto res = model.run(img);
    EXPECT_EQ(res.output.data(), want.output.data());
    EXPECT_EQ(res.report.arraysRetired, 3u);
    EXPECT_EQ(res.report.faultsDetected, 0u); // caught before runtime
    EXPECT_EQ(res.report.passRetries, 0u);
}

TEST(FaultRecovery, MidRunFlipIsDetectedRepairedAndRetried)
{
    auto net = smallNet();
    auto img = image(0x22);
    auto want = core::Engine(baseOpts()).compile(net).run(img);

    auto opts = baseOpts();
    opts.faults.killArrays = {95}; // arm the campaign, kill the tail
    auto model = core::Engine(opts).compile(net);
    ASSERT_TRUE(model.canaryArmed());

    // A soft error strikes logical array 0's guard row mid-run: the
    // canary must catch it, retire the array, and recompute.
    auto *cc = model.computeCache();
    cc->injectFlip(cc->physicalOf(0), cc->geometry().arrayRows - 1,
                   3);

    auto res = model.run(img);
    EXPECT_EQ(res.output.data(), want.output.data());
    EXPECT_EQ(res.report.faultsDetected, 1u);
    EXPECT_EQ(res.report.arraysRetired, 2u); // 1 BIST + 1 canary
    EXPECT_EQ(res.report.passRetries, 1u);

    // The healed plan is stable: repeat runs stay identical and the
    // cumulative counters do not move.
    auto again = model.run(img);
    EXPECT_EQ(again.output.data(), want.output.data());
    EXPECT_EQ(again.report.faultsDetected, 1u);
    EXPECT_EQ(again.report.arraysRetired, 2u);
    EXPECT_EQ(again.report.passRetries, 1u);
}

TEST(FaultRecovery, BatchPassHealsAndReruns)
{
    auto net = smallNet();
    std::vector<dnn::QTensor> inputs;
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(image(0x30 + i));

    auto clean = core::Engine(baseOpts()).compile(net);
    std::vector<std::vector<uint8_t>> want;
    for (const auto &in : inputs)
        want.push_back(clean.run(in).output.data());

    auto opts = baseOpts();
    opts.threads = 3;
    opts.faults.killArrays = {95};
    auto model = core::Engine(opts).compile(net);

    // Warm-up pins the image replicas; the flip then strikes between
    // batches, so the second batch's first pass must detect and heal.
    auto warm = model.runBatch(inputs);
    for (size_t i = 0; i < inputs.size(); ++i)
        ASSERT_EQ(warm.outputs[i].data(), want[i]) << i;

    auto *cc = model.computeCache();
    cc->injectFlip(cc->physicalOf(0), cc->geometry().arrayRows - 1,
                   9);

    auto res = model.runBatch(inputs);
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(res.outputs[i].data(), want[i]) << i;
    EXPECT_GE(res.report.faultsDetected, 1u);
    EXPECT_GE(res.report.passRetries, 1u);
    EXPECT_EQ(res.report.arraysRetired, 2u);
}

TEST(FaultRecoveryDeath, RetryBudgetExhaustionIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Every touch flips a bit: no repair can ever produce a clean
    // sweep, so the budget drains and the run must die naming it
    // rather than return corrupt output.
    auto opts = baseOpts();
    opts.faults.transientRate = 1.0;
    opts.faults.bist = false;
    opts.faults.retryBudget = 1;
    auto img = image(0x44);
    EXPECT_DEATH(
        {
            auto model = core::Engine(opts).compile(smallNet());
            (void)model.run(img);
        },
        "retry budget");
}

TEST(FaultRecoveryDeath, CapacityFloorNamesTheRetiredArrays)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // 95 of 96 arrays dead: graceful degradation has a floor, and
    // falling through it is a compile-time hard error that lists the
    // casualties.
    auto opts = baseOpts();
    for (uint64_t i = 0; i < 95; ++i)
        opts.faults.killArrays.push_back(i);
    EXPECT_DEATH((void)core::Engine(opts).compile(smallNet()),
                 "retired arrays");
}

TEST(FaultRecoveryDeath, AnalyticBackendRefusesCampaigns)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto opts = baseOpts();
    opts.backend = BackendKind::Analytic;
    opts.faults.killArrays = {0};
    EXPECT_DEATH((void)core::Engine(opts).compile(smallNet()),
                 "analytic backend has no arrays");
}

TEST(FaultRecovery, EngineOverlaysNcFaultsEnvironment)
{
    setenv("NC_FAULTS", "kill_list=0:1:2", 1);
    core::Engine eng(baseOpts());
    ASSERT_EQ(eng.options().faults.killArrays.size(), 3u);
    EXPECT_EQ(eng.options().faults.killArrays[2], 2u);
    unsetenv("NC_FAULTS");
}

} // namespace
