/**
 * @file
 * Length-prefixed binary wire protocol of the serving front end.
 *
 * Every frame is a little-endian u32 payload length followed by the
 * payload; the payload starts with a magic/version/kind header so a
 * desynchronized or foreign byte stream is rejected loudly instead of
 * being misparsed. Two frame kinds:
 *
 *   Request:  id (u64), priority (u8, 0..kMaxPriority), input tensor
 *             (c/h/w u32 each, quant min/max f32 each, c*h*w bytes).
 *   Response: id (u64), status (u8), per-request InferenceReport
 *             slice (queue wait ms, total latency ms as f64; pass
 *             index u64; batch occupancy u32), an error string
 *             (u32 length + bytes, empty for Ok), and the output
 *             tensor in the request encoding (empty dims for non-Ok).
 *
 * The same encode/decode path serves both transports: the socket
 * server parses exactly these bytes off TCP connections, and the
 * in-process loopback transport routes them through the identical
 * FrameReader, so a loopback test proves the wire format too.
 */

#ifndef NC_SERVE_WIRE_HH
#define NC_SERVE_WIRE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dnn/tensor.hh"

namespace nc::serve::wire
{

/** First payload byte pair of every frame ("NC"). */
inline constexpr uint16_t kMagic = 0x434e;
/** Protocol version; bumped on any layout change. */
inline constexpr uint8_t kVersion = 1;
/** Priorities are a small band: 0 (bulk) .. 7 (most urgent). */
inline constexpr uint8_t kMaxPriority = 7;
/**
 * Upper bound on one frame's payload, sized for kMaxBatch-free
 * single images with headroom (a 2048x299x299 tensor is ~183 MB —
 * far beyond any modeled input); larger prefixes are a protocol
 * error, not an allocation.
 */
inline constexpr uint32_t kMaxFrameBytes = 256u * 1024 * 1024;

/** Frame kinds (payload byte 3). */
enum class Kind : uint8_t { Request = 1, Response = 2 };

/** Typed response verdicts; rejects are loud, never silent drops. */
enum class Status : uint8_t {
    Ok = 0,           ///< output + report slice attached
    Rejected = 1,     ///< admission control: past --max-inflight
    BadRequest = 2,   ///< malformed frame / wrong input shape
    ShuttingDown = 3, ///< server draining; resubmit elsewhere
};

/** Human-readable status name ("ok", "rejected", ...). */
const char *statusName(Status s);

/** One inference request as it crosses the wire. */
struct RequestFrame
{
    uint64_t id = 0;
    uint8_t priority = 0; ///< 0..kMaxPriority, higher first
    dnn::QTensor input;
};

/** One response: verdict, output, and the per-request report slice. */
struct ResponseFrame
{
    uint64_t id = 0;
    Status status = Status::Ok;
    /** Time spent queued in the batcher before its pass launched. */
    double queueMs = 0;
    /** Total server-side latency (admission to completion). */
    double latencyMs = 0;
    /** Index of the runBatch pass that served this request. */
    uint64_t passIndex = 0;
    /** How many requests shared that pass (batch occupancy). */
    uint32_t batchSize = 0;
    /** Diagnostic for non-Ok statuses (empty for Ok). */
    std::string message;
    /** The network's output activation (empty for non-Ok). */
    dnn::QTensor output;
};

/** Append one encoded frame (length prefix included) to @p out. */
void encodeRequest(const RequestFrame &req, std::vector<uint8_t> &out);
void encodeResponse(const ResponseFrame &rsp,
                    std::vector<uint8_t> &out);

/**
 * Decode one frame payload (the bytes after the length prefix).
 * Returns false and fills @p error on any malformation: bad magic or
 * version, wrong kind, truncated fields, tensor byte count not
 * matching its dims, priority out of band.
 */
bool decodeRequest(std::span<const uint8_t> payload, RequestFrame &out,
                   std::string &error);
bool decodeResponse(std::span<const uint8_t> payload,
                    ResponseFrame &out, std::string &error);

/**
 * Incremental length-prefix splitter for a byte stream: feed() bytes
 * as they arrive (partial frames welcome), next() hands back one
 * complete payload at a time. A length prefix over the reader's
 * ceiling poisons it (error() non-empty, next() forever empty) — the
 * stream is desynchronized and the connection must be dropped. The
 * ceiling bounds what one connection can make the reader buffer:
 * kMaxFrameBytes by default, and a server passes the size of a
 * request for its model.
 */
class FrameReader
{
  public:
    explicit FrameReader(uint32_t max_frame = kMaxFrameBytes)
        : ceil(max_frame)
    {
    }

    void feed(std::span<const uint8_t> bytes);
    /** One complete frame payload, or nullopt if none is buffered. */
    std::optional<std::vector<uint8_t>> next();
    /** Non-empty once the stream is unrecoverable. */
    const std::string &error() const { return err; }
    /** Bytes buffered but not yet returned (for tests). */
    size_t pending() const { return buf.size() - pos; }

  private:
    uint32_t ceil;
    std::vector<uint8_t> buf;
    size_t pos = 0;
    std::string err;
};

} // namespace nc::serve::wire

#endif // NC_SERVE_WIRE_HH
