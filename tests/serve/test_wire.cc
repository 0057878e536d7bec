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

/**
 * Patch @p frame's tensor dims (the tensor of @p tensor_bytes ends the
 * frame) to @p ch x @p h x @p w and drop the tensor bytes.
 */
void
forgeDims(std::vector<uint8_t> &frame, size_t tensor_bytes, uint32_t ch,
          uint32_t h, uint32_t w)
{
    const size_t at = frame.size() - tensor_bytes - 20;
    const uint32_t dims[3] = {ch, h, w};
    for (unsigned d = 0; d < 3; ++d)
        for (unsigned b = 0; b < 4; ++b)
            frame[at + 4 * d + b] =
                static_cast<uint8_t>(dims[d] >> (8 * b));
    frame.resize(at + 20);
}

TEST(Wire, RejectsDimsWhoseProductWraps)
{
    // 2^22 x 2^21 x 2^21 = 2^64 wraps a 64-bit product to 0: with no
    // tensor bytes behind them, such dims must still be refused as
    // larger than the frame ceiling — not accepted as an empty
    // tensor whose every at() reads out of bounds.
    const uint32_t ch = 1u << 22, h = 1u << 21, w = 1u << 21;

    wire::RequestFrame req;
    req.id = 1;
    req.input = someTensor();
    std::vector<uint8_t> rq;
    wire::encodeRequest(req, rq);
    forgeDims(rq, req.input.size(), ch, h, w);
    wire::RequestFrame rqOut;
    std::string err;
    EXPECT_FALSE(wire::decodeRequest(payloadOf(rq), rqOut, err));
    EXPECT_NE(err.find("frame ceiling"), std::string::npos) << err;

    wire::ResponseFrame rsp;
    rsp.id = 2;
    rsp.output = someTensor(11);
    std::vector<uint8_t> rs;
    wire::encodeResponse(rsp, rs);
    forgeDims(rs, rsp.output.size(), ch, h, w);
    wire::ResponseFrame rsOut;
    err.clear();
    EXPECT_FALSE(wire::decodeResponse(payloadOf(rs), rsOut, err));
    EXPECT_NE(err.find("frame ceiling"), std::string::npos) << err;
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
