/**
 * @file
 * Seeded mutation fuzzing of the wire decoders. Valid request and
 * response frames are mutated — bit flips, byte overwrites (aimed at
 * the tensor dims fields too), truncations, extensions, and splices
 * of two frames — and every result goes to decodeRequest,
 * decodeResponse, and a FrameReader fed in random-sized pieces. No
 * input may crash a decoder; a rejected frame must say why; an
 * accepted frame must hold exactly c*h*w tensor bytes and re-encode
 * to the same payload, byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dnn/random.hh"
#include "serve/wire.hh"

namespace
{

using namespace nc::serve;

/** A valid encoded frame and where its tensor dims sit in it. */
struct Seed
{
    std::vector<uint8_t> frame; ///< length prefix included
    size_t dimsAt = 0;          ///< offset of the c, h, w fields
};

std::vector<Seed>
seeds()
{
    nc::Rng rng(91);
    std::vector<Seed> out;
    auto add = [&](std::vector<uint8_t> frame, size_t tensor_bytes) {
        size_t at = frame.size() - tensor_bytes - 20;
        out.push_back({std::move(frame), at});
    };
    for (unsigned i = 0; i < 3; ++i) {
        wire::RequestFrame req;
        req.id = rng.uniformBits(64);
        req.priority = static_cast<uint8_t>(i * 3);
        req.input = nc::dnn::randomQTensor(rng, 1 + i, 2 + i, 3);
        std::vector<uint8_t> f;
        wire::encodeRequest(req, f);
        add(std::move(f), req.input.size());
    }
    for (unsigned i = 0; i < 3; ++i) {
        wire::ResponseFrame rsp;
        rsp.id = rng.uniformBits(64);
        rsp.queueMs = 0.5 * i;
        rsp.latencyMs = 3.25 + i;
        rsp.passIndex = i;
        rsp.batchSize = 4;
        if (i == 2) {
            // Non-Ok: a message and the all-zero "no tensor" dims.
            rsp.status = wire::Status::Rejected;
            rsp.message = "in-flight cap reached";
        } else {
            rsp.output = nc::dnn::randomQTensor(rng, 2, 2 + i, 2);
        }
        std::vector<uint8_t> f;
        wire::encodeResponse(rsp, f);
        add(std::move(f), rsp.output.size());
    }
    return out;
}

size_t
pick(nc::Rng &rng, size_t n)
{
    return static_cast<size_t>(rng.uniformInt(0, static_cast<int64_t>(n) - 1));
}

/** One to three stacked mutations of a random seed. */
std::vector<uint8_t>
mutate(nc::Rng &rng, const std::vector<Seed> &pool)
{
    const Seed &seed = pool[pick(rng, pool.size())];
    std::vector<uint8_t> f = seed.frame;
    static const uint32_t kDims[] = {0u,       1u,         0xffffffffu,
                                     1u << 31, 1u << 21,   1u << 22,
                                     1u << 16, 0x10000001u};
    unsigned n = 1 + static_cast<unsigned>(pick(rng, 3));
    for (unsigned m = 0; m < n; ++m) {
        switch (pick(rng, 6)) {
          case 0: // bit flip
            if (!f.empty())
                f[pick(rng, f.size())] ^=
                    static_cast<uint8_t>(1u << pick(rng, 8));
            break;
          case 1: // byte overwrite
            if (!f.empty())
                f[pick(rng, f.size())] =
                    static_cast<uint8_t>(rng.uniformBits(8));
            break;
          case 2: { // one dims field overwritten
            size_t at = seed.dimsAt + 4 * pick(rng, 3);
            uint32_t v = pick(rng, 2) ? kDims[pick(rng, 8)]
                                      : static_cast<uint32_t>(
                                            rng.uniformBits(32));
            for (unsigned b = 0; b < 4 && at + b < f.size(); ++b)
                f[at + b] = static_cast<uint8_t>(v >> (8 * b));
            break;
          }
          case 3: // truncation
            f.resize(pick(rng, f.size() + 1));
            break;
          case 4: // extension
            for (size_t k = 1 + pick(rng, 32); k > 0; --k)
                f.push_back(static_cast<uint8_t>(rng.uniformBits(8)));
            break;
          case 5: { // splice: a prefix of this frame, a suffix of another
            const std::vector<uint8_t> &o =
                pool[pick(rng, pool.size())].frame;
            f.resize(pick(rng, f.size() + 1));
            f.insert(f.end(), o.begin() + static_cast<ptrdiff_t>(
                                              pick(rng, o.size() + 1)),
                     o.end());
            break;
          }
        }
    }
    return f;
}

/** Empty when @p payload decodes soundly as a request (or is
 * rejected with a reason); else what went wrong. */
std::string
checkRequest(std::span<const uint8_t> payload)
{
    wire::RequestFrame out;
    std::string err;
    if (!wire::decodeRequest(payload, out, err))
        return err.empty() ? "request rejected without a message" : "";
    const nc::dnn::QTensor &t = out.input;
    if (t.data().size() !=
        uint64_t(t.channels()) * t.height() * t.width())
        return "request tensor bytes differ from its dims";
    std::vector<uint8_t> re;
    wire::encodeRequest(out, re);
    if (!std::equal(payload.begin(), payload.end(), re.begin() + 4,
                    re.end()))
        return "accepted request does not re-encode to its payload";
    return "";
}

std::string
checkResponse(std::span<const uint8_t> payload)
{
    wire::ResponseFrame out;
    std::string err;
    if (!wire::decodeResponse(payload, out, err))
        return err.empty() ? "response rejected without a message" : "";
    const nc::dnn::QTensor &t = out.output;
    if (t.data().size() !=
        uint64_t(t.channels()) * t.height() * t.width())
        return "response tensor bytes differ from its dims";
    std::vector<uint8_t> re;
    wire::encodeResponse(out, re);
    if (!std::equal(payload.begin(), payload.end(), re.begin() + 4,
                    re.end()))
        return "accepted response does not re-encode to its payload";
    return "";
}

std::string
checkPayload(std::span<const uint8_t> payload)
{
    std::string why = checkRequest(payload);
    return why.empty() ? checkResponse(payload) : why;
}

TEST(WireFuzz, MutatedFramesDecodeSoundlyOrSayWhy)
{
    const std::vector<Seed> pool = seeds();
    for (const Seed &s : pool)
        ASSERT_EQ(checkPayload({s.frame.data() + 4, s.frame.size() - 4}),
                  "");

    nc::Rng rng(20261019);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 4000; ++i) {
        const std::vector<uint8_t> f = mutate(rng, pool);
        std::span<const uint8_t> payload;
        if (f.size() >= 4)
            payload = {f.data() + 4, f.size() - 4};
        std::string why = checkPayload(payload);
        ASSERT_EQ(why, "") << "case " << i;

        wire::RequestFrame req;
        wire::ResponseFrame rsp;
        std::string err;
        accepted += wire::decodeRequest(payload, req, err) ||
                    wire::decodeResponse(payload, rsp, err);

        // The same bytes as a stream, in random-sized pieces; a
        // small ceiling makes oversized prefixes poison the reader.
        wire::FrameReader reader(1u << 12);
        for (size_t at = 0; at < f.size();) {
            size_t n = std::min(f.size() - at, 1 + pick(rng, 16));
            reader.feed({f.data() + at, n});
            at += n;
            while (auto frame = reader.next()) {
                why = checkPayload(*frame);
                ASSERT_EQ(why, "") << "case " << i << " (reader)";
            }
        }
        if (!reader.error().empty()) {
            ASSERT_FALSE(reader.next().has_value()) << "case " << i;
        }
        ASSERT_LE(reader.pending(), f.size()) << "case " << i;
    }
    // Enough mutations keep a frame valid that both verdicts occur.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, 4000u);
}

} // namespace
