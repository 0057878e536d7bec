/** @file Wire protocol: round trips, malformations, frame splitting. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dnn/random.hh"
#include "serve/wire.hh"

namespace
{

using namespace nc::serve;

/** The payload of an encoded frame (everything after the prefix). */
std::span<const uint8_t>
payloadOf(const std::vector<uint8_t> &frame)
{
    return {frame.data() + 4, frame.size() - 4};
}

nc::dnn::QTensor
someTensor(uint64_t seed = 3, unsigned c = 2, unsigned hw = 5)
{
    nc::Rng rng(seed);
    return nc::dnn::randomQTensor(rng, c, hw, hw);
}

TEST(Wire, RequestRoundTripPreservesEveryField)
{
    wire::RequestFrame req;
    req.id = 0x1122334455667788ull;
    req.priority = 5;
    req.input = someTensor();

    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    // u32 length prefix, little endian, counts the payload only.
    uint32_t prefix = bytes[0] | bytes[1] << 8 | bytes[2] << 16 |
                      static_cast<uint32_t>(bytes[3]) << 24;
    EXPECT_EQ(prefix, bytes.size() - 4);

    wire::RequestFrame back;
    std::string err;
    ASSERT_TRUE(wire::decodeRequest(payloadOf(bytes), back, err))
        << err;
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.priority, req.priority);
    EXPECT_EQ(back.input.channels(), req.input.channels());
    EXPECT_EQ(back.input.height(), req.input.height());
    EXPECT_EQ(back.input.width(), req.input.width());
    EXPECT_EQ(back.input.data(), req.input.data());
    EXPECT_EQ(back.input.params().minVal, req.input.params().minVal);
    EXPECT_EQ(back.input.params().maxVal, req.input.params().maxVal);
}

TEST(Wire, ResponseRoundTripPreservesReportSlice)
{
    wire::ResponseFrame rsp;
    rsp.id = 42;
    rsp.status = wire::Status::Ok;
    rsp.queueMs = 1.25;
    rsp.latencyMs = 17.5;
    rsp.passIndex = 9;
    rsp.batchSize = 6;
    rsp.output = someTensor(11);

    std::vector<uint8_t> bytes;
    wire::encodeResponse(rsp, bytes);
    wire::ResponseFrame back;
    std::string err;
    ASSERT_TRUE(wire::decodeResponse(payloadOf(bytes), back, err))
        << err;
    EXPECT_EQ(back.id, 42u);
    EXPECT_EQ(back.status, wire::Status::Ok);
    EXPECT_DOUBLE_EQ(back.queueMs, 1.25);
    EXPECT_DOUBLE_EQ(back.latencyMs, 17.5);
    EXPECT_EQ(back.passIndex, 9u);
    EXPECT_EQ(back.batchSize, 6u);
    EXPECT_TRUE(back.message.empty());
    EXPECT_EQ(back.output.data(), rsp.output.data());
}

TEST(Wire, NonOkResponseCarriesMessageAndNoTensor)
{
    wire::ResponseFrame rsp;
    rsp.id = 7;
    rsp.status = wire::Status::Rejected;
    rsp.message = "in-flight cap 4 reached — backpressure";

    std::vector<uint8_t> bytes;
    wire::encodeResponse(rsp, bytes);
    wire::ResponseFrame back;
    std::string err;
    ASSERT_TRUE(wire::decodeResponse(payloadOf(bytes), back, err))
        << err;
    EXPECT_EQ(back.status, wire::Status::Rejected);
    EXPECT_EQ(back.message, rsp.message);
    EXPECT_EQ(back.output.data().size(), 0u);
}

TEST(Wire, StatusNamesAreHuman)
{
    EXPECT_STREQ(wire::statusName(wire::Status::Ok), "ok");
    EXPECT_STREQ(wire::statusName(wire::Status::Rejected),
                 "rejected");
    EXPECT_STREQ(wire::statusName(wire::Status::BadRequest),
                 "bad-request");
    EXPECT_STREQ(wire::statusName(wire::Status::ShuttingDown),
                 "shutting-down");
}

TEST(Wire, RejectsForeignAndFutureHeaders)
{
    wire::RequestFrame req;
    req.id = 1;
    req.input = someTensor();
    std::vector<uint8_t> good;
    wire::encodeRequest(req, good);

    wire::RequestFrame out;
    std::string err;
    {
        auto bad = good;
        bad[4] ^= 0xff; // magic low byte
        EXPECT_FALSE(wire::decodeRequest(payloadOf(bad), out, err));
        EXPECT_NE(err.find("magic"), std::string::npos) << err;
    }
    {
        auto bad = good;
        bad[6] = wire::kVersion + 1;
        EXPECT_FALSE(wire::decodeRequest(payloadOf(bad), out, err));
        EXPECT_NE(err.find("version"), std::string::npos) << err;
    }
    {
        // A response frame handed to the request decoder.
        wire::ResponseFrame rsp;
        rsp.id = 1;
        std::vector<uint8_t> enc;
        wire::encodeResponse(rsp, enc);
        EXPECT_FALSE(wire::decodeRequest(payloadOf(enc), out, err));
        EXPECT_NE(err.find("kind"), std::string::npos) << err;
    }
}

TEST(Wire, RejectsTruncationAnywhere)
{
    wire::RequestFrame req;
    req.id = 1;
    req.input = someTensor();
    std::vector<uint8_t> good;
    wire::encodeRequest(req, good);

    // Chop the payload at several depths: header, id, tensor bytes.
    for (size_t keep : {size_t(2), size_t(6), good.size() - 4 - 1}) {
        wire::RequestFrame out;
        std::string err;
        std::span<const uint8_t> cut(good.data() + 4, keep);
        EXPECT_FALSE(wire::decodeRequest(cut, out, err)) << keep;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Wire, RejectsPriorityOutOfBand)
{
    // The encoder refuses to produce such a frame (it asserts), so
    // forge one: encode in-band, then patch the priority byte, which
    // sits after prefix(4) + header(4) + id(8).
    wire::RequestFrame req;
    req.id = 1;
    req.priority = wire::kMaxPriority;
    req.input = someTensor();
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    bytes[16] = wire::kMaxPriority + 1;

    wire::RequestFrame out;
    std::string err;
    EXPECT_FALSE(wire::decodeRequest(payloadOf(bytes), out, err));
    EXPECT_NE(err.find("priority"), std::string::npos) << err;
}

TEST(Wire, RejectsDegenerateTensorDims)
{
    // c=0 with h,w nonzero is neither a tensor nor the "no tensor"
    // marker (all dims zero) — it must be refused, not mis-sized.
    wire::RequestFrame req;
    req.id = 1;
    req.input = someTensor();
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    // Tensor dims sit right after header(4) + id(8) + priority(1).
    size_t cOff = 4 + 4 + 8 + 1;
    for (unsigned b = 0; b < 4; ++b)
        bytes[cOff + b] = 0;

    wire::RequestFrame out;
    std::string err;
    EXPECT_FALSE(wire::decodeRequest(payloadOf(bytes), out, err));
    EXPECT_NE(err.find("degenerate"), std::string::npos) << err;
}

TEST(Wire, FrameReaderReassemblesByteByByte)
{
    wire::RequestFrame req;
    req.id = 77;
    req.input = someTensor();
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);

    wire::FrameReader reader;
    for (uint8_t b : bytes) {
        EXPECT_FALSE(reader.next().has_value());
        reader.feed({&b, 1});
    }
    auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(reader.pending(), 0u);

    wire::RequestFrame back;
    std::string err;
    ASSERT_TRUE(wire::decodeRequest(*payload, back, err)) << err;
    EXPECT_EQ(back.id, 77u);
}

TEST(Wire, FrameReaderSplitsCoalescedFrames)
{
    std::vector<uint8_t> stream;
    for (uint64_t id : {1, 2, 3}) {
        wire::RequestFrame req;
        req.id = id;
        req.input = someTensor(id);
        wire::encodeRequest(req, stream);
    }
    wire::FrameReader reader;
    reader.feed(stream);
    for (uint64_t id : {1, 2, 3}) {
        auto payload = reader.next();
        ASSERT_TRUE(payload.has_value()) << id;
        wire::RequestFrame back;
        std::string err;
        ASSERT_TRUE(wire::decodeRequest(*payload, back, err)) << err;
        EXPECT_EQ(back.id, id);
    }
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error().empty());
}

TEST(Wire, ReaderCeilingIsInclusive)
{
    // A payload of exactly the ceiling passes ...
    wire::FrameReader reader(5);
    const uint8_t exact[] = {5, 0, 0, 0, 1, 2, 3, 4, 5};
    reader.feed(exact);
    auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(payload->size(), 5u);

    // ... and a prefix one byte over poisons the reader at once,
    // before any of its payload arrives.
    const uint8_t over[] = {6, 0, 0, 0};
    reader.feed(over);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.error().empty());
}

TEST(Wire, OversizedPrefixPoisonsTheStream)
{
    wire::FrameReader reader;
    const uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
    reader.feed(huge);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.error().empty());

    // Poisoned means poisoned: later (valid) bytes change nothing.
    wire::RequestFrame req;
    req.id = 1;
    req.input = someTensor();
    std::vector<uint8_t> bytes;
    wire::encodeRequest(req, bytes);
    reader.feed(bytes);
    EXPECT_FALSE(reader.next().has_value());
}

} // namespace
