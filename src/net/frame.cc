#include "net/frame.h"

#include <cstring>

#include "common/macros.h"
#include "persist/codec.h"

namespace piye {
namespace net {

namespace {

void PutU16LE(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32LE(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64LE(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint16_t GetU16LE(const char* p) {
  const auto* u = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint16_t>(u[0]) | static_cast<uint16_t>(u[1]) << 8;
}

uint32_t GetU32LE(const char* p) {
  const auto* u = reinterpret_cast<const uint8_t*>(p);
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

uint64_t GetU64LE(const char* p) {
  const auto* u = reinterpret_cast<const uint8_t*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

/// Reads exactly `len` bytes. A clean EOF before any byte of this call is a
/// `kUnavailable` ("peer closed"); a timeout is passed through from the
/// transport. The caller decides (by choosing the deadline) whether a
/// timeout is an idle tick or a mid-frame stall.
Status ReadExact(Transport& transport, char* buf, size_t len,
                 TimePoint deadline) {
  size_t off = 0;
  while (off < len) {
    PIYE_ASSIGN_OR_RETURN(const size_t n,
                          transport.Read(buf + off, len - off, deadline));
    if (n == 0) {
      return Status::Unavailable("peer closed the connection");
    }
    off += n;
  }
  return Status::OK();
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "Hello";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kExecuteRequest: return "ExecuteRequest";
    case MessageType::kExecuteResponse: return "ExecuteResponse";
    case MessageType::kSketchRequest: return "SketchRequest";
    case MessageType::kSketchResponse: return "SketchResponse";
    case MessageType::kCancelRequest: return "CancelRequest";
    case MessageType::kGoodbye: return "Goodbye";
  }
  return "Unknown";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  PutU32LE(out, kFrameMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(frame.type));
  PutU16LE(out, 0);  // flags (reserved)
  PutU64LE(out, frame.request_id);
  PutU32LE(out, static_cast<uint32_t>(frame.payload.size()));
  PutU32LE(out, persist::Crc32(out.data(), out.size()));
  out.append(frame.payload);
  PutU32LE(out, persist::Crc32(frame.payload));
  return out;
}

Status WriteFrame(Transport& transport, const Frame& frame,
                  TimePoint deadline) {
  if (frame.payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload exceeds wire limit");
  }
  return transport.WriteAll(EncodeFrame(frame), deadline);
}

Result<Frame> ReadFrame(Transport& transport, TimePoint idle_deadline,
                        std::chrono::milliseconds frame_timeout,
                        size_t max_payload) {
  char header[kFrameHeaderBytes];

  // First byte: an expiry here means the peer is merely quiet, and the
  // stream is still in sync — report kDeadlineExceeded and let the caller
  // loop. Everything after the first byte runs against the frame timeout;
  // any failure past this point means the stream cannot be trusted.
  PIYE_ASSIGN_OR_RETURN(const size_t first,
                        transport.Read(header, 1, idle_deadline));
  if (first == 0) {
    return Status::Unavailable("peer closed the connection");
  }
  const TimePoint frame_deadline =
      std::chrono::steady_clock::now() + frame_timeout;
  Status rest = ReadExact(transport, header + 1, kFrameHeaderBytes - 1,
                          frame_deadline);
  if (!rest.ok()) {
    if (rest.IsDeadlineExceeded()) {
      return Status::Unavailable("frame header stalled mid-read: " +
                                 rest.message());
    }
    return rest;
  }

  // Validate the header before trusting any field in it.
  const uint32_t stored_header_crc = GetU32LE(header + 20);
  const uint32_t actual_header_crc = persist::Crc32(header, 20);
  if (stored_header_crc != actual_header_crc) {
    return Status::DataLoss("frame header CRC mismatch");
  }
  if (GetU32LE(header) != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(header[4]);
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  const uint8_t raw_type = static_cast<uint8_t>(header[5]);
  if (raw_type < static_cast<uint8_t>(MessageType::kHello) ||
      raw_type > static_cast<uint8_t>(MessageType::kGoodbye)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw_type));
  }
  if (GetU16LE(header + 6) != 0) {
    return Status::InvalidArgument("nonzero reserved frame flags");
  }
  const uint32_t payload_len = GetU32LE(header + 16);
  if (payload_len > max_payload) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload_len) +
                                   " bytes exceeds limit of " +
                                   std::to_string(max_payload));
  }

  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.request_id = GetU64LE(header + 8);
  frame.payload.resize(payload_len);
  char trailer[kFrameTrailerBytes];
  if (payload_len > 0) {
    rest = ReadExact(transport, frame.payload.data(), payload_len,
                     frame_deadline);
    if (!rest.ok()) {
      if (rest.IsDeadlineExceeded()) {
        return Status::Unavailable("frame payload stalled mid-read: " +
                                   rest.message());
      }
      return rest;
    }
  }
  rest = ReadExact(transport, trailer, kFrameTrailerBytes, frame_deadline);
  if (!rest.ok()) {
    if (rest.IsDeadlineExceeded()) {
      return Status::Unavailable("frame trailer stalled mid-read: " +
                                 rest.message());
    }
    return rest;
  }
  const uint32_t stored_payload_crc = GetU32LE(trailer);
  if (stored_payload_crc != persist::Crc32(frame.payload)) {
    return Status::DataLoss("frame payload CRC mismatch");
  }
  return frame;
}

}  // namespace net
}  // namespace piye
