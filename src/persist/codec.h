#ifndef PIYE_PERSIST_CODEC_H_
#define PIYE_PERSIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace piye {
namespace persist {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range —
/// the integrity check on every WAL frame and snapshot blob. A software
/// table implementation keeps the persistence layer self-contained, matching
/// the library's no-external-crypto rule (see common/sha256.h).
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

/// Little-endian binary encoder for WAL payloads and snapshot blobs. All
/// persisted integers are fixed-width little-endian regardless of host
/// order, so a log written on one machine replays on another.
class Encoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// IEEE-754 bit pattern via the u64 path (doubles round-trip exactly).
  void PutDouble(double v);
  /// u64 length prefix + raw bytes.
  void PutString(std::string_view s);
  void PutStringVector(const std::vector<std::string>& v);
  void PutU64Vector(const std::vector<uint64_t>& v);

  void Reserve(size_t n) { out_.reserve(n); }
  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder over a byte view. Every getter fails with
/// kParseError instead of reading past the end, so a corrupt (but
/// CRC-colliding) payload degrades to a recovery error, never undefined
/// behaviour. Vector/string lengths are validated against the remaining
/// bytes before any allocation, so a flipped length field cannot trigger a
/// giant allocation.
class Decoder {
 public:
  /// Non-owning view; the underlying buffer must outlive the decoder. The
  /// rvalue overload is deleted so `Decoder(enc.Take())` — a view into a
  /// destroyed temporary — fails to compile instead of dangling.
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}
  explicit Decoder(std::string&&) = delete;

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<std::vector<std::string>> GetStringVector();
  Result<std::vector<uint64_t>> GetU64Vector();

  size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  Status Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace piye

#endif  // PIYE_PERSIST_CODEC_H_
