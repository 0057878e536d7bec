#include "serve/wire.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace nc::serve::wire
{

namespace
{

/** @name Little-endian field writers (append to a byte vector) */
/// @{
void
put8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

void
put16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putF32(std::vector<uint8_t> &out, float v)
{
    put32(out, std::bit_cast<uint32_t>(v));
}

void
putF64(std::vector<uint8_t> &out, double v)
{
    put64(out, std::bit_cast<uint64_t>(v));
}
/// @}

/** Bounds-checked little-endian field reader over one payload. */
class Cursor
{
  public:
    explicit Cursor(std::span<const uint8_t> bytes_) : bytes(bytes_) {}

    bool
    take(size_t n, const uint8_t *&p)
    {
        if (bytes.size() - pos < n)
            return false;
        p = bytes.data() + pos;
        pos += n;
        return true;
    }

    bool
    get8(uint8_t &v)
    {
        const uint8_t *p;
        if (!take(1, p))
            return false;
        v = p[0];
        return true;
    }

    bool
    get16(uint16_t &v)
    {
        const uint8_t *p;
        if (!take(2, p))
            return false;
        v = static_cast<uint16_t>(p[0] | (p[1] << 8));
        return true;
    }

    bool
    get32(uint32_t &v)
    {
        const uint8_t *p;
        if (!take(4, p))
            return false;
        v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p[i]) << (8 * i);
        return true;
    }

    bool
    get64(uint64_t &v)
    {
        const uint8_t *p;
        if (!take(8, p))
            return false;
        v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        return true;
    }

    bool
    getF32(float &v)
    {
        uint32_t bits;
        if (!get32(bits))
            return false;
        v = std::bit_cast<float>(bits);
        return true;
    }

    bool
    getF64(double &v)
    {
        uint64_t bits;
        if (!get64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool atEnd() const { return pos == bytes.size(); }

  private:
    std::span<const uint8_t> bytes;
    size_t pos = 0;
};

void
putTensor(std::vector<uint8_t> &out, const dnn::QTensor &t)
{
    put32(out, t.channels());
    put32(out, t.height());
    put32(out, t.width());
    putF32(out, t.params().minVal);
    putF32(out, t.params().maxVal);
    out.insert(out.end(), t.data().begin(), t.data().end());
}

bool
getTensor(Cursor &c, dnn::QTensor &t, std::string &error)
{
    uint32_t ch, h, w;
    float lo, hi;
    if (!c.get32(ch) || !c.get32(h) || !c.get32(w) || !c.getF32(lo) ||
        !c.getF32(hi)) {
        error = "truncated tensor header";
        return false;
    }
    // An all-zero dim triple is the explicit "no tensor" encoding of
    // non-Ok responses (its params still round-trip); a partially
    // zero one is malformed.
    if (ch == 0 && h == 0 && w == 0) {
        t = dnn::QTensor(0, 0, 0, dnn::QuantParams{lo, hi});
        return true;
    }
    if (ch == 0 || h == 0 || w == 0) {
        error = "degenerate tensor dims";
        return false;
    }
    // Bound ch * h before multiplying by w: three 32-bit dims can
    // reach 2^96, so the full product can wrap 64 bits to a small n.
    const uint64_t plane = static_cast<uint64_t>(ch) * h;
    const uint64_t n = plane * w;
    if (plane > kMaxFrameBytes || n > kMaxFrameBytes) {
        error = "tensor larger than the frame ceiling";
        return false;
    }
    const uint8_t *p;
    if (!c.take(static_cast<size_t>(n), p)) {
        error = "tensor payload shorter than its dims";
        return false;
    }
    t = dnn::QTensor(ch, h, w, dnn::QuantParams{lo, hi});
    std::memcpy(t.data().data(), p, static_cast<size_t>(n));
    return true;
}

/** Common payload header; returns false on magic/version mismatch. */
bool
checkHeader(Cursor &c, Kind want, std::string &error)
{
    uint16_t magic;
    uint8_t version, kind;
    if (!c.get16(magic) || !c.get8(version) || !c.get8(kind)) {
        error = "truncated frame header";
        return false;
    }
    if (magic != kMagic) {
        error = "bad magic (not a serve frame)";
        return false;
    }
    if (version != kVersion) {
        error = detail::format("protocol version %u, expected %u",
                               version, kVersion);
        return false;
    }
    if (kind != static_cast<uint8_t>(want)) {
        error = detail::format("frame kind %u, expected %u", kind,
                               static_cast<unsigned>(want));
        return false;
    }
    return true;
}

/** Back-patch the length prefix once the payload is in place. */
void
finishFrame(std::vector<uint8_t> &out, size_t lenAt)
{
    uint64_t payload = out.size() - lenAt - 4;
    nc_assert(payload <= kMaxFrameBytes,
              "frame payload %llu exceeds the %u-byte ceiling",
              static_cast<unsigned long long>(payload), kMaxFrameBytes);
    for (unsigned i = 0; i < 4; ++i)
        out[lenAt + i] = static_cast<uint8_t>(payload >> (8 * i));
}

} // namespace

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok: return "ok";
    case Status::Rejected: return "rejected";
    case Status::BadRequest: return "bad-request";
    case Status::ShuttingDown: return "shutting-down";
    }
    return "unknown";
}

void
encodeRequest(const RequestFrame &req, std::vector<uint8_t> &out)
{
    nc_assert(req.priority <= kMaxPriority,
              "request priority %u out of band", req.priority);
    size_t lenAt = out.size();
    put32(out, 0); // patched below
    put16(out, kMagic);
    put8(out, kVersion);
    put8(out, static_cast<uint8_t>(Kind::Request));
    put64(out, req.id);
    put8(out, req.priority);
    putTensor(out, req.input);
    finishFrame(out, lenAt);
}

void
encodeResponse(const ResponseFrame &rsp, std::vector<uint8_t> &out)
{
    size_t lenAt = out.size();
    put32(out, 0); // patched below
    put16(out, kMagic);
    put8(out, kVersion);
    put8(out, static_cast<uint8_t>(Kind::Response));
    put64(out, rsp.id);
    put8(out, static_cast<uint8_t>(rsp.status));
    putF64(out, rsp.queueMs);
    putF64(out, rsp.latencyMs);
    put64(out, rsp.passIndex);
    put32(out, rsp.batchSize);
    put32(out, static_cast<uint32_t>(rsp.message.size()));
    out.insert(out.end(), rsp.message.begin(), rsp.message.end());
    putTensor(out, rsp.output);
    finishFrame(out, lenAt);
}

bool
decodeRequest(std::span<const uint8_t> payload, RequestFrame &out,
              std::string &error)
{
    Cursor c(payload);
    if (!checkHeader(c, Kind::Request, error))
        return false;
    if (!c.get64(out.id) || !c.get8(out.priority)) {
        error = "truncated request fields";
        return false;
    }
    if (out.priority > kMaxPriority) {
        error = detail::format("priority %u out of band (max %u)",
                               out.priority, kMaxPriority);
        return false;
    }
    if (!getTensor(c, out.input, error))
        return false;
    if (out.input.size() == 0) {
        error = "request carries no input tensor";
        return false;
    }
    if (!c.atEnd()) {
        error = "trailing bytes after request";
        return false;
    }
    return true;
}

bool
decodeResponse(std::span<const uint8_t> payload, ResponseFrame &out,
               std::string &error)
{
    Cursor c(payload);
    if (!checkHeader(c, Kind::Response, error))
        return false;
    uint8_t status;
    uint32_t msgLen;
    if (!c.get64(out.id) || !c.get8(status) ||
        !c.getF64(out.queueMs) || !c.getF64(out.latencyMs) ||
        !c.get64(out.passIndex) || !c.get32(out.batchSize) ||
        !c.get32(msgLen)) {
        error = "truncated response fields";
        return false;
    }
    if (status > static_cast<uint8_t>(Status::ShuttingDown)) {
        error = detail::format("unknown status byte %u", status);
        return false;
    }
    out.status = static_cast<Status>(status);
    const uint8_t *msg;
    if (!c.take(msgLen, msg)) {
        error = "truncated response message";
        return false;
    }
    out.message.assign(reinterpret_cast<const char *>(msg), msgLen);
    if (!getTensor(c, out.output, error))
        return false;
    if (!c.atEnd()) {
        error = "trailing bytes after response";
        return false;
    }
    return true;
}

void
FrameReader::feed(std::span<const uint8_t> bytes)
{
    if (!err.empty())
        return;
    // Compact the consumed prefix before growing: the buffer never
    // holds more than one partial frame plus what feed() just added.
    if (pos > 0) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<ptrdiff_t>(pos));
        pos = 0;
    }
    buf.insert(buf.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<uint8_t>>
FrameReader::next()
{
    if (!err.empty())
        return std::nullopt;
    if (buf.size() - pos < 4)
        return std::nullopt;
    uint32_t len = 0;
    for (unsigned i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(buf[pos + i]) << (8 * i);
    if (len > ceil) {
        err = detail::format("frame length %u exceeds the %u-byte "
                             "ceiling — stream desynchronized",
                             len, ceil);
        return std::nullopt;
    }
    if (buf.size() - pos - 4 < len)
        return std::nullopt;
    auto first = buf.begin() + static_cast<ptrdiff_t>(pos + 4);
    std::vector<uint8_t> payload(first,
                                 first + static_cast<ptrdiff_t>(len));
    pos += 4 + len;
    return payload;
}

} // namespace nc::serve::wire
