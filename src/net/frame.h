#ifndef PIYE_NET_FRAME_H_
#define PIYE_NET_FRAME_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/transport.h"

namespace piye {
namespace net {

/// The PRIVATE-IYE federation wire protocol, layer 1: length-prefixed,
/// CRC-framed, versioned frames over a byte stream. Layout (all integers
/// little-endian, matching persist/codec):
///
///   offset  0  u32  magic        "PIYE" (0x45594950 as LE bytes 'P','I','Y','E')
///           4  u8   version      kProtocolVersion; mismatch => reject frame
///           5  u8   type         MessageType
///           6  u16  flags        0 (reserved; nonzero rejected)
///           8  u64  request_id   multiplexing tag: responses echo requests'
///          16  u32  payload_len  bounded by the reader's max_payload
///          20  u32  header_crc   CRC-32 over bytes [0,20)
///          24  ...  payload
///     24+len  u32  payload_crc  CRC-32 over the payload bytes
///
/// The header CRC is checked *before* the payload length is trusted, so a
/// flipped length bit can neither trigger a giant allocation nor desync the
/// stream silently; the payload CRC catches corruption in the body. Any
/// framing violation is a `kInvalidArgument` — the stream can no longer be
/// trusted and the connection must be dropped (both ends do).
constexpr uint32_t kFrameMagic = 0x45594950u;  // "PIYE" read little-endian
constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kFrameHeaderBytes = 24;
constexpr size_t kFrameTrailerBytes = 4;
/// Default ceiling on one frame's payload. Generous for result tables, far
/// below anything that could OOM the mediator.
constexpr size_t kDefaultMaxPayload = 64u << 20;

/// Layer-2 message vocabulary (payload schemas live in net/wire.h).
enum class MessageType : uint8_t {
  kHello = 1,            ///< client → server: protocol handshake
  kHelloAck = 2,         ///< server → client: hosted source owners
  kExecuteRequest = 3,   ///< client → server: run one query fragment
  kExecuteResponse = 4,  ///< server → client: status + tagged result table
  kSketchRequest = 5,    ///< client → server: export schema sketches
  kSketchResponse = 6,   ///< server → client: status + sketches
  kCancelRequest = 7,    ///< client → server: cancel in-flight request_id
  kGoodbye = 8,          ///< either side: graceful connection close
};

const char* MessageTypeName(MessageType type);

struct Frame {
  MessageType type = MessageType::kHello;
  uint64_t request_id = 0;
  std::string payload;
};

/// Serializes a frame (header + payload + trailer).
std::string EncodeFrame(const Frame& frame);

/// Writes one frame, honoring `deadline`.
Status WriteFrame(Transport& transport, const Frame& frame, TimePoint deadline);

/// Reads one frame. Deadline semantics are split to fit both sides' loops:
///
///  - `idle_deadline` bounds the wait for the frame's *first byte*. Expiry
///    with nothing read returns `kDeadlineExceeded` with the stream intact —
///    an idle tick, safe to retry.
///  - Once the first byte arrives the whole frame must land within
///    `frame_timeout`; a stall mid-frame is indistinguishable from a torn
///    write and returns `kUnavailable` (connection must be dropped).
///
/// `kUnavailable`: peer closed or connection failed. `kInvalidArgument`:
/// framing violation (bad magic / version / flags / CRC / oversized payload)
/// — drop the connection.
Result<Frame> ReadFrame(Transport& transport, TimePoint idle_deadline,
                        std::chrono::milliseconds frame_timeout,
                        size_t max_payload = kDefaultMaxPayload);

}  // namespace net
}  // namespace piye

#endif  // PIYE_NET_FRAME_H_
