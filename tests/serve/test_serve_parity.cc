/**
 * @file
 * End-to-end serving parity: whatever the batcher's dynamic batch
 * composition, every served output must be bit-identical to a direct
 * CompiledModel::runBatch of the same inputs — across randomized
 * network shapes, engine thread counts, concurrent client counts,
 * and both transports. Plus the determinism property the bench
 * numbers rely on: identical request sets compose identical batches,
 * and a served model under a fault campaign repairs itself without
 * changing a byte of any response.
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/loadgen.hh"
#include "serve/server.hh"

#include "serve_test_net.hh"

namespace
{

using namespace nc;

struct Shape
{
    unsigned channels, hw, filters;
};

/** A few tiny-but-distinct topologies (kept fast; the parity proof
 * does not depend on size). */
const Shape kShapes[] = {
    {1, 6, 2},
    {3, 8, 4},
    {2, 10, 3},
};

TEST(ServeParity, ServedEqualsDirectAcrossShapesThreadsClients)
{
    uint64_t seed = 100;
    for (const auto &shape : kShapes) {
        for (unsigned threads : {1u, 3u}) {
            core::Engine engine(serve_test::functionalOpts(threads));
            auto model = engine.compile(serve_test::tinyNet(
                shape.channels, shape.hw, shape.filters));
            for (unsigned clients : {1u, 4u}) {
                serve::ServerOptions sopts;
                sopts.batcher.deadlineMs = 1;
                sopts.batcher.maxBatch = 4;
                serve::InferenceServer server(model, sopts);
                serve::LoadGenOptions lopts;
                lopts.requests = 12;
                lopts.clients = clients;
                lopts.seed = ++seed;
                auto stats =
                    serve::runLoadGen(model, server, lopts);
                server.shutdown();
                SCOPED_TRACE(testing::Message()
                             << "c" << shape.channels << " hw"
                             << shape.hw << " f" << shape.filters
                             << " threads " << threads << " clients "
                             << clients);
                EXPECT_EQ(stats.completed, 12u);
                EXPECT_EQ(stats.errors, 0u);
                EXPECT_EQ(stats.mismatched, 0u)
                    << "served outputs diverged from direct runBatch";
            }
        }
    }
}

TEST(ServeParity, PrioritySpreadStillBitIdentical)
{
    // Mixed priorities reorder batch compositions; outputs must not
    // notice. Drive the server by hand so each request carries its
    // own priority.
    core::Engine engine(serve_test::functionalOpts(2));
    auto model = engine.compile(serve_test::tinyNet());

    std::vector<dnn::QTensor> inputs;
    for (uint64_t i = 0; i < 8; ++i)
        inputs.push_back(serve_test::inputFor(model, 31, i));
    auto expected = model.runBatch(inputs).outputs;

    serve::ServerOptions sopts;
    sopts.batcher.maxBatch = 3;
    sopts.batcher.startPaused = true; // compose one deep queue
    serve::InferenceServer server(model, sopts);
    auto client = server.loopback();
    for (uint64_t i = 0; i < 8; ++i) {
        serve::wire::RequestFrame req;
        req.id = i + 1;
        req.priority = static_cast<uint8_t>(
            (i * 5) % (serve::wire::kMaxPriority + 1));
        req.input = inputs[i];
        client.send(req);
    }
    server.batcher().resume();
    for (int k = 0; k < 8; ++k) {
        auto rsp = client.receive();
        ASSERT_TRUE(rsp.has_value());
        ASSERT_EQ(rsp->status, serve::wire::Status::Ok);
        EXPECT_EQ(rsp->output.data(), expected[rsp->id - 1].data())
            << "id " << rsp->id;
    }
    server.shutdown();
}

TEST(ServeParity, IdenticalRunsComposeIdenticalBatches)
{
    // The deterministic tie-break property: the same request set in
    // the same order yields the same (passIndex, batchSize) per id,
    // run to run.
    core::Engine engine(serve_test::functionalOpts());
    auto model = engine.compile(serve_test::tinyNet());

    auto compose = [&] {
        serve::ServerOptions sopts;
        sopts.batcher.maxBatch = 3;
        sopts.batcher.startPaused = true;
        serve::InferenceServer server(model, sopts);
        auto client = server.loopback();
        for (uint64_t i = 0; i < 9; ++i) {
            serve::wire::RequestFrame req;
            req.id = i + 1;
            req.priority = static_cast<uint8_t>(i % 3);
            req.input = serve_test::inputFor(model, 77, i);
            client.send(req);
        }
        server.batcher().resume();
        std::vector<std::pair<uint64_t, unsigned>> byId(9);
        for (int k = 0; k < 9; ++k) {
            auto rsp = client.receive();
            EXPECT_TRUE(rsp.has_value());
            byId[rsp->id - 1] = {rsp->passIndex, rsp->batchSize};
        }
        server.shutdown();
        return byId;
    };
    EXPECT_EQ(compose(), compose())
        << "batch compositions are not reproducible";
}

TEST(ServeParity, SocketTransportPreservesParity)
{
    core::Engine engine(serve_test::functionalOpts(2));
    auto model = engine.compile(serve_test::tinyNet());
    serve::ServerOptions sopts;
    sopts.batcher.deadlineMs = 1;
    serve::InferenceServer server(model, sopts);
    std::string err;
    if (!server.start(&err))
        GTEST_SKIP() << "no TCP in this sandbox: " << err;

    serve::LoadGenOptions lopts;
    lopts.requests = 12;
    lopts.clients = 3;
    lopts.seed = 9;
    lopts.overSocket = true;
    auto stats = serve::runLoadGen(model, server, lopts);
    server.shutdown();
    EXPECT_EQ(stats.completed, 12u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.mismatched, 0u);
}

TEST(ServeFaults, CanaryRepairInsideTheBatcherKeepsResponsesBitIdentical)
{
    // conv -> 2x2 max pool -> 1x1 head on 96 arrays (1 slice x 6 ways,
    // the fault-recovery geometry). Killing the last array arms the
    // campaign; a soft error then strikes logical array 0's guard row
    // while the batcher is paused, so the runner thread's first pass
    // must detect it, retire the array and rerun.
    dnn::Network net;
    net.name = "serve-faults";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, 4)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 8, 8, 4, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 4, 1, 1, 3)));
    core::EngineOptions opts = serve_test::functionalOpts(2);
    opts.config.geometry.slices = 1;
    opts.config.geometry.waysPerSlice = 6;

    core::Engine clean_engine(opts);
    auto clean = clean_engine.compile(net);
    std::vector<dnn::QTensor> inputs;
    for (uint64_t i = 0; i < 8; ++i)
        inputs.push_back(serve_test::inputFor(clean, 57, i));
    auto expected = clean.runBatch(inputs).outputs;

    opts.faults.killArrays = {opts.config.geometry.totalArrays() - 1};
    core::Engine engine(opts);
    auto model = engine.compile(net);
    ASSERT_TRUE(model.canaryArmed());

    serve::ServerOptions sopts;
    sopts.batcher.maxBatch = 4;
    sopts.batcher.startPaused = true;
    serve::InferenceServer server(model, sopts);
    auto client = server.loopback();
    for (uint64_t i = 0; i < 8; ++i) {
        serve::wire::RequestFrame req;
        req.id = i + 1;
        req.input = inputs[i];
        client.send(req);
    }
    cache::ComputeCache *cc = model.computeCache();
    cc->injectFlip(cc->physicalOf(0), cc->geometry().arrayRows - 1, 3);
    server.batcher().resume();
    for (int k = 0; k < 8; ++k) {
        auto rsp = client.receive();
        ASSERT_TRUE(rsp.has_value());
        ASSERT_EQ(rsp->status, serve::wire::Status::Ok);
        EXPECT_EQ(rsp->output.data(), expected[rsp->id - 1].data())
            << "id " << rsp->id;
    }
    server.shutdown();

    const core::InferenceReport rep = model.report(1);
    EXPECT_GE(rep.faultsDetected, 1u);
    EXPECT_GE(rep.passRetries, 1u);
}

} // namespace
