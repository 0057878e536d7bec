/**
 * @file
 * InferenceServer transports: the loopback path end to end (which
 * exercises the exact socket framing/decode code), protocol-error
 * handling, typed shutdown refusals, and a real TCP round trip
 * (skipped, not failed, where the sandbox forbids sockets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "serve/loadgen.hh"
#include "serve/server.hh"

#include "serve_test_net.hh"

namespace
{

using namespace nc;
using serve::InferenceServer;

class ServerTest : public ::testing::Test
{
  protected:
    ServerTest()
        : engine(serve_test::functionalOpts()),
          model(engine.compile(serve_test::tinyNet()))
    {
    }

    dnn::QTensor input(uint64_t i)
    {
        return serve_test::inputFor(model, 21, i);
    }

    serve::wire::RequestFrame request(uint64_t id)
    {
        serve::wire::RequestFrame req;
        req.id = id;
        req.input = input(id);
        return req;
    }

    core::Engine engine;
    core::CompiledModel model;
};

TEST_F(ServerTest, LoopbackServesAndMatchesDirectRuns)
{
    serve::ServerOptions opts;
    opts.batcher.deadlineMs = 1;
    InferenceServer server(model, opts);
    auto client = server.loopback();

    for (uint64_t id = 1; id <= 3; ++id)
        client.send(request(id));
    std::vector<serve::wire::ResponseFrame> responses;
    for (int i = 0; i < 3; ++i) {
        auto rsp = client.receive();
        ASSERT_TRUE(rsp.has_value()) << "response " << i << " missing";
        responses.push_back(std::move(*rsp));
    }
    server.shutdown();

    std::sort(responses.begin(), responses.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
    for (uint64_t id = 1; id <= 3; ++id) {
        auto &rsp = responses[id - 1];
        EXPECT_EQ(rsp.id, id);
        EXPECT_EQ(rsp.status, serve::wire::Status::Ok);
        EXPECT_GE(rsp.latencyMs, rsp.queueMs);
        EXPECT_GE(rsp.batchSize, 1u);
        EXPECT_EQ(rsp.output.data(), model.run(input(id)).output.data())
            << "served output diverged for id " << id;
    }
    EXPECT_EQ(server.serverStats().framesIn, 3u);
    EXPECT_EQ(server.serverStats().protocolErrors, 0u);
}

TEST_F(ServerTest, EachLoopbackClientOwnsItsResponses)
{
    InferenceServer server(model, {});
    auto a = server.loopback();
    auto b = server.loopback();
    a.send(request(1));
    b.send(request(2));
    auto ra = a.receive();
    auto rb = b.receive();
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->id, 1u) << "response crossed client streams";
    EXPECT_EQ(rb->id, 2u);
    server.shutdown();
}

TEST_F(ServerTest, MalformedFrameAnswersBadRequest)
{
    InferenceServer server(model, {});
    auto client = server.loopback();

    // A well-framed payload that is not a protocol frame.
    const uint8_t junk[] = {3, 0, 0, 0, 'x', 'y', 'z'};
    client.sendBytes(junk);
    auto rsp = client.receive();
    ASSERT_TRUE(rsp.has_value())
        << "a bad frame must be answered, not ignored";
    EXPECT_EQ(rsp->status, serve::wire::Status::BadRequest);
    EXPECT_EQ(rsp->id, 0u) << "no id could be parsed";
    EXPECT_FALSE(rsp->message.empty());
    EXPECT_EQ(server.serverStats().protocolErrors, 1u);

    // The session survives: a valid request still round-trips.
    client.send(request(5));
    auto ok = client.receive();
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->id, 5u);
    EXPECT_EQ(ok->status, serve::wire::Status::Ok);
    server.shutdown();
}

TEST_F(ServerTest, OutOfBandPriorityIsBadRequest)
{
    InferenceServer server(model, {});
    auto client = server.loopback();
    // The encoder asserts on out-of-band priorities, so forge the
    // frame: the priority byte sits after prefix(4) + header(4) +
    // id(8).
    std::vector<uint8_t> bytes;
    serve::wire::encodeRequest(request(1), bytes);
    bytes[16] = serve::wire::kMaxPriority + 1;
    client.sendBytes(bytes);
    auto rsp = client.receive();
    ASSERT_TRUE(rsp.has_value());
    EXPECT_EQ(rsp->status, serve::wire::Status::BadRequest);
    server.shutdown();
}

/**
 * @p req's frame grown by one trailing payload byte: a length prefix
 * one byte over the encoded size of a request for the served model.
 */
std::vector<uint8_t>
oneByteOver(const serve::wire::RequestFrame &req)
{
    std::vector<uint8_t> bytes;
    serve::wire::encodeRequest(req, bytes);
    bytes.push_back(0);
    const uint32_t len = static_cast<uint32_t>(bytes.size() - 4);
    for (unsigned i = 0; i < 4; ++i)
        bytes[i] = static_cast<uint8_t>(len >> (8 * i));
    return bytes;
}

/**
 * @p client's next response under receive()'s default timeout, with
 * the wall milliseconds the call took in @p ms.
 */
std::optional<serve::wire::ResponseFrame>
timedReceive(InferenceServer::LoopbackClient &client, double &ms)
{
    auto t0 = std::chrono::steady_clock::now();
    auto rsp = client.receive();
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
    return rsp;
}

TEST_F(ServerTest, FrameCeilingIsOneRequestOverLoopback)
{
    InferenceServer server(model, {});
    auto client = server.loopback();
    double ms = 0;

    // A request for the served model is exactly the ceiling.
    std::vector<uint8_t> exact;
    serve::wire::encodeRequest(request(1), exact);
    client.sendBytes(exact);
    auto ok = timedReceive(client, ms);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, serve::wire::Status::Ok);
    EXPECT_LT(ms, 1000.0);
    EXPECT_EQ(server.serverStats().protocolErrors, 0u);

    // One byte more poisons the stream before any payload buffers:
    // no answer (not even BadRequest), and the session is dropped at
    // once instead of leaving receive() to wait out its timeout.
    client.sendBytes(oneByteOver(request(2)));
    EXPECT_FALSE(timedReceive(client, ms).has_value());
    EXPECT_LT(ms, 1000.0) << "receive() waited on a dropped session";
    EXPECT_EQ(server.serverStats().protocolErrors, 1u);
    client.send(request(3));
    EXPECT_FALSE(timedReceive(client, ms).has_value())
        << "a dropped session served a later request";
    EXPECT_LT(ms, 1000.0) << "receive() waited on a dropped session";
    server.shutdown();
    EXPECT_EQ(server.serverStats().framesIn, 1u);
    EXPECT_EQ(server.serverStats().protocolErrors, 1u);
}

TEST_F(ServerTest, PoisonedLoopbackSessionDropsLateResponses)
{
    serve::ServerOptions opts;
    opts.batcher.startPaused = true;
    InferenceServer server(model, opts);
    auto client = server.loopback();

    // One valid request is admitted but cannot run yet; then the
    // stream poisons, which drops the session.
    client.send(request(1));
    client.sendBytes(oneByteOver(request(2)));
    double ms = 0;
    EXPECT_FALSE(timedReceive(client, ms).has_value());
    EXPECT_LT(ms, 1000.0) << "receive() waited on a dropped session";

    // The admitted request still runs, but its response completes
    // after the drop: it is counted, not queued.
    server.batcher().resume();
    server.shutdown();
    EXPECT_FALSE(client.receive(0).has_value());
    const serve::ServerStats st = server.serverStats();
    EXPECT_EQ(st.droppedResponses, 1u);
    EXPECT_EQ(st.framesIn, 1u);
    EXPECT_EQ(st.protocolErrors, 1u);
}

TEST_F(ServerTest, FrameCeilingIsOneRequestOverSockets)
{
    InferenceServer server(model, {});
    std::string err;
    if (!server.start(&err))
        GTEST_SKIP() << "no TCP in this sandbox: " << err;
    auto client = serve::SocketClient::connectTo(server.port(), &err);
    ASSERT_TRUE(client.has_value()) << err;

    std::vector<uint8_t> exact;
    serve::wire::encodeRequest(request(1), exact);
    client->sendBytes(exact);
    auto ok = client->receive();
    ASSERT_TRUE(ok.has_value()) << client->streamError();
    EXPECT_EQ(ok->status, serve::wire::Status::Ok);

    client->sendBytes(oneByteOver(request(2)));
    EXPECT_FALSE(client->receive(5000).has_value())
        << "the server must close the connection, not answer";
    server.shutdown();
    EXPECT_EQ(server.serverStats().framesIn, 1u);
    EXPECT_EQ(server.serverStats().protocolErrors, 1u);
}

TEST_F(ServerTest, ShutdownAnswersShuttingDown)
{
    InferenceServer server(model, {});
    server.shutdown();
    auto client = server.loopback();
    client.send(request(1));
    auto rsp = client.receive();
    ASSERT_TRUE(rsp.has_value())
        << "late requests get a typed refusal, not silence";
    EXPECT_EQ(rsp->status, serve::wire::Status::ShuttingDown);
}

TEST_F(ServerTest, SocketRoundTripMatchesDirectRuns)
{
    serve::ServerOptions opts;
    opts.batcher.deadlineMs = 1;
    InferenceServer server(model, opts);
    std::string err;
    if (!server.start(&err))
        GTEST_SKIP() << "no TCP in this sandbox: " << err;
    ASSERT_NE(server.port(), 0u);

    auto client = serve::SocketClient::connectTo(server.port(), &err);
    ASSERT_TRUE(client.has_value()) << err;
    for (uint64_t id = 1; id <= 2; ++id) {
        client->send(request(id));
        auto rsp = client->receive();
        ASSERT_TRUE(rsp.has_value()) << client->streamError();
        EXPECT_EQ(rsp->id, id);
        EXPECT_EQ(rsp->status, serve::wire::Status::Ok);
        EXPECT_EQ(rsp->output.data(),
                  model.run(input(id)).output.data());
    }
    server.shutdown();
    EXPECT_EQ(server.serverStats().connectionsAccepted, 1u);
    EXPECT_EQ(server.serverStats().framesIn, 2u);
}

TEST_F(ServerTest, ConnectionCapRefusesTheOverflow)
{
    serve::ServerOptions opts;
    opts.maxConnections = 1;
    InferenceServer server(model, opts);
    std::string err;
    if (!server.start(&err))
        GTEST_SKIP() << "no TCP in this sandbox: " << err;

    auto first = serve::SocketClient::connectTo(server.port(), &err);
    ASSERT_TRUE(first.has_value()) << err;
    first->send(request(1));
    ASSERT_TRUE(first->receive().has_value());

    // The second connect succeeds at the TCP level (backlog) but the
    // server closes it instead of servicing it.
    auto second = serve::SocketClient::connectTo(server.port(), &err);
    ASSERT_TRUE(second.has_value()) << err;
    second->send(request(2));
    auto rsp = second->receive(5000);
    EXPECT_FALSE(rsp.has_value());
    server.shutdown();
    EXPECT_EQ(server.serverStats().connectionsRefused, 1u);
}

} // namespace
