/**
 * @file
 * Image-parallel batch parity harness (§IV-E): runBatch fans the
 * images of one batch over the shared pool, each image executing in
 * its own replica of the network's array bands — and the result must
 * be bit-identical to the serial per-image loop for every tensor
 * backend {reference, functional}, every thread count {1, 3}, and every
 * batch size {1, 2, 7, over-capacity}, across the randomized
 * mixed/residual nets the branch-parity suite generates.
 *
 * Also pins the §IV-E pass structure itself: the executed slot count
 * obeys the residency planner's capacity arithmetic, over-capacity
 * batches time-slice, and the analytic report prices the identical
 * structure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "dnn/random.hh"
#include "sram/kernels.hh"

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

/** The oracle: the serial per-image loop on @p model (slot 0). */
std::vector<std::vector<uint8_t>>
serialLoop(core::CompiledModel &model,
           const std::vector<dnn::QTensor> &inputs)
{
    std::vector<std::vector<uint8_t>> outs;
    outs.reserve(inputs.size());
    for (const auto &in : inputs)
        outs.push_back(model.run(in).output.data());
    return outs;
}

TEST(BatchParity, ParallelBatchMatchesSerialLoopAcrossBackends)
{
    Rng rng(0xba7c);
    const dnn::Network nets[] = {
        testnets::randomMixedNet("batch-mixed", 5, 2, rng),
        testnets::residualNet("batch-residual", 6, 3, 5, 1),
    };

    for (const dnn::Network &net : nets) {
        // The serial-loop golden: reference backend, one thread —
        // the §IV-E batch must reproduce exactly this, every way.
        core::EngineOptions ref;
        ref.backend = BackendKind::Reference;
        ref.threads = 1;
        auto golden_model = core::Engine(ref).compile(net);
        unsigned cin = golden_model.inputChannels();
        unsigned hw = golden_model.inputHeight();

        for (unsigned batch : {1u, 2u, 7u}) {
            auto inputs =
                randomBatch(batch, cin, hw, 0x9000 + batch);
            auto golden = serialLoop(golden_model, inputs);

            for (BackendKind kind :
                 {BackendKind::Reference, BackendKind::Functional}) {
                for (unsigned t : {1u, 3u}) {
                    core::EngineOptions opts;
                    opts.backend = kind;
                    opts.threads = t;
                    core::Engine engine(opts);
                    auto model = engine.compile(net);
                    auto res = model.runBatch(inputs);
                    ASSERT_EQ(res.outputs.size(), inputs.size());
                    EXPECT_EQ(res.report.batch, batch);
                    for (size_t i = 0; i < inputs.size(); ++i) {
                        EXPECT_EQ(res.outputs[i].data(), golden[i])
                            << net.name << " image " << i << ": "
                            << core::backendKindName(kind) << " with "
                            << t << " threads, batch " << batch;
                    }
                }
            }
        }
    }
}

TEST(BatchParity, EverySimdTierReproducesTheBatchBitExactly)
{
    // End-to-end tier parity: the whole engine pipeline — layout,
    // bit-serial arithmetic, batching — run once per runnable SIMD
    // dispatch tier, must produce the identical batch output. This
    // is the integration-level counterpart of the per-op kernel
    // diff suite (tests/sram/test_array_kernels.cc).
    Rng rng(0x51bd);
    auto net = testnets::randomMixedNet("batch-simd", 5, 2, rng);

    core::EngineOptions opts;
    opts.threads = 1;
    core::Engine engine(opts);
    auto model = engine.compile(net);
    auto inputs = randomBatch(4, model.inputChannels(),
                              model.inputHeight(), 0x51bd);

    const auto prev = sram::kern::activeTier();
    std::vector<std::vector<uint8_t>> golden;
    for (auto tier : sram::kern::availableTiers()) {
        sram::kern::forceTier(tier);
        auto res = model.runBatch(inputs);
        ASSERT_EQ(res.outputs.size(), inputs.size());
        if (golden.empty()) {
            for (const auto &out : res.outputs)
                golden.push_back(out.data());
            continue;
        }
        for (size_t i = 0; i < golden.size(); ++i)
            EXPECT_EQ(res.outputs[i].data(), golden[i])
                << "image " << i << " diverged at tier "
                << common::simd::tierName(tier);
    }
    sram::kern::forceTier(prev);
}

TEST(BatchParity, RepeatedBatchesAndInterleavedRunsAreBitIdentical)
{
    Rng rng(0x1b1b);
    auto net = testnets::randomMixedNet("batch-repeat", 5, 3, rng);

    core::EngineOptions opts;
    opts.threads = 3;
    core::Engine engine(opts);
    auto model = engine.compile(net);
    auto inputs = randomBatch(5, model.inputChannels(),
                              model.inputHeight(), 0xfeed);

    auto first = model.runBatch(inputs);
    // A single run in between must not disturb replica state...
    auto single = model.run(inputs[2]);
    auto second = model.runBatch(inputs);
    ASSERT_EQ(first.outputs.size(), second.outputs.size());
    for (size_t i = 0; i < first.outputs.size(); ++i)
        EXPECT_EQ(first.outputs[i].data(), second.outputs[i].data())
            << i;
    EXPECT_EQ(single.output.data(), first.outputs[2].data());
}

TEST(BatchParity, OverCapacityBatchTimeSlicesInPasses)
{
    // A cache of 20 arrays total: the net below pins 5 filter arrays
    // + 1 scratch slot per image, so only floor(20 / 6) = 3 images
    // fit concurrently and a batch of 7 must time-slice into 3
    // passes — while staying bit-identical to the serial loop.
    dnn::Network net;
    net.name = "over-capacity";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 8, 8, 2, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 2, 1, 1, 3)));

    core::EngineOptions opts;
    opts.config.geometry.slices = 1;
    opts.config.geometry.waysPerSlice = 20;
    opts.config.geometry.banksPerWay = 1;
    opts.config.geometry.subarraysPerBank = 1;
    opts.config.geometry.arraysPerSubarray = 1;
    opts.backend = BackendKind::Functional;
    opts.threads = 3;
    core::Engine engine(opts);
    auto model = engine.compile(net);

    const mapping::BatchBandPlan &bands = model.batchBands();
    ASSERT_TRUE(bands.resident);
    EXPECT_EQ(bands.filterArrays, 5u);
    EXPECT_EQ(bands.perImageArrays, 6u);
    ASSERT_EQ(bands.imageSlots, 3u);
    EXPECT_EQ(bands.passes(7), 3u);

    const unsigned batch = 7; // > imageSlots: over-capacity
    auto inputs = randomBatch(batch, 3, 8, 0xca9);
    auto serial = serialLoop(model, inputs);
    auto res = model.runBatch(inputs);
    ASSERT_EQ(res.outputs.size(), size_t(batch));
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(res.outputs[i].data(), serial[i]) << i;

    // Replicas were pinned lazily, capped at the capacity slots, and
    // the analytic report prices the identical pass structure.
    EXPECT_EQ(model.preparedImageSlots(), 3u);
    EXPECT_EQ(res.report.imageSlots, 3u);
    EXPECT_EQ(res.report.batchPasses, 3u);

    // One-thread engine, same over-capacity batch: still identical.
    opts.threads = 1;
    auto model1 = core::Engine(opts).compile(net);
    auto res1 = model1.runBatch(inputs);
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(res1.outputs[i].data(), serial[i]) << i;
}

TEST(BatchParity, StreamingRegimePinsSingleSlot)
{
    // 6 arrays total: conv1 alone wants 4, so the whole net (4 + 3 +
    // scratch) exceeds the cache and compiles into the streaming
    // regime — batches fall back to the serial per-image loop
    // (imageSlots == 1), still bit-identical.
    dnn::Network net;
    net.name = "streaming-batch";
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
    core::Engine engine(opts);
    auto model = engine.compile(net);

    ASSERT_FALSE(model.batchBands().resident);
    EXPECT_EQ(model.batchBands().imageSlots, 1u);
    EXPECT_EQ(model.batchBands().passes(4), 4u);

    auto inputs = randomBatch(4, 3, 6, 0x57e);
    auto serial = serialLoop(model, inputs);
    auto res = model.runBatch(inputs);
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(res.outputs[i].data(), serial[i]) << i;
    EXPECT_EQ(model.preparedImageSlots(), 1u);
}

TEST(BatchParity, BandPlanCapacityArithmetic)
{
    cache::Geometry geom; // 4480 arrays
    auto p = mapping::planBatchBands(100, 4, geom, true);
    EXPECT_TRUE(p.resident);
    EXPECT_EQ(p.perImageArrays, 104u);
    EXPECT_EQ(p.imageSlots, 4480u / 104u);
    EXPECT_EQ(p.passes(1), 1u);
    EXPECT_EQ(p.passes(43), 1u);
    EXPECT_EQ(p.passes(44), 2u);

    // Streaming verdict pins one slot regardless of capacity.
    auto s = mapping::planBatchBands(100, 4, geom, false);
    EXPECT_FALSE(s.resident);
    EXPECT_EQ(s.imageSlots, 1u);
    EXPECT_EQ(s.passes(17), 17u);

    // A footprint beyond the cache is streaming even when the
    // caller's residency hint says otherwise.
    auto big = mapping::planBatchBands(5000, 4, geom, true);
    EXPECT_FALSE(big.resident);
    EXPECT_EQ(big.imageSlots, 1u);

    // Scratch slots are clamped to at least one.
    auto z = mapping::planBatchBands(10, 0, geom, true);
    EXPECT_EQ(z.scratchSlots, 1u);
    EXPECT_EQ(z.perImageArrays, 11u);
}

} // namespace
