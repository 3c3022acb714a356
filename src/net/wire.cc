#include "net/wire.h"

#include <utility>

#include "common/macros.h"
#include "linkage/bloom.h"
#include "persist/codec.h"
#include "relational/table_codec.h"

namespace piye {
namespace net {

namespace {

using persist::Decoder;
using persist::Encoder;

Status CheckSchemaVersion(Decoder& dec, const char* what) {
  PIYE_ASSIGN_OR_RETURN(const uint8_t version, dec.GetU8());
  if (version != kWireSchemaVersion) {
    return Status::InvalidArgument(std::string(what) +
                                   ": unsupported schema version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

Status CheckExhausted(const Decoder& dec, const char* what) {
  if (!dec.exhausted()) {
    return Status::InvalidArgument(std::string(what) + ": " +
                                   std::to_string(dec.remaining()) +
                                   " trailing bytes");
  }
  return Status::OK();
}

constexpr uint16_t kMaxStatusCode =
    static_cast<uint16_t>(StatusCode::kCancelled);

void PutStatus(Encoder& enc, const Status& status) {
  enc.PutU16(static_cast<uint16_t>(status.code()));
  enc.PutString(status.message());
}

/// Result<Status> is ill-formed (the error and value constructors collide),
/// so the decoded status goes out by pointer.
Status GetStatus(Decoder& dec, Status* out) {
  PIYE_ASSIGN_OR_RETURN(const uint16_t code, dec.GetU16());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("status code " + std::to_string(code) +
                                   " out of range");
  }
  PIYE_ASSIGN_OR_RETURN(std::string message, dec.GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void PutSketch(Encoder& enc, const match::ColumnSketch& sketch) {
  enc.PutString(sketch.ref.source);
  enc.PutString(sketch.ref.table);
  enc.PutString(sketch.ref.column);
  enc.PutU8(sketch.name_public ? 1 : 0);
  enc.PutU8(static_cast<uint8_t>(sketch.type));
  enc.PutDouble(sketch.mean_length);
  enc.PutDouble(sketch.digit_ratio);
  enc.PutDouble(sketch.alpha_ratio);
  enc.PutDouble(sketch.distinct_ratio);
  enc.PutDouble(sketch.numeric_mean);
  enc.PutDouble(sketch.numeric_stddev);
  if (sketch.value_filter.has_value()) {
    const linkage::BloomFilter& filter = *sketch.value_filter;
    enc.PutU8(1);
    enc.PutU64(filter.num_bits());
    enc.PutU64(filter.num_hashes());
    // Bits packed 8-per-byte, LSB-first.
    const std::vector<bool>& bits = filter.bits();
    std::string packed((bits.size() + 7) / 8, '\0');
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) packed[i / 8] |= static_cast<char>(1u << (i % 8));
    }
    enc.PutString(packed);
  } else {
    enc.PutU8(0);
  }
}

Result<match::ColumnSketch> GetSketch(Decoder& dec) {
  match::ColumnSketch sketch;
  PIYE_ASSIGN_OR_RETURN(sketch.ref.source, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(sketch.ref.table, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(sketch.ref.column, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(const uint8_t name_public, dec.GetU8());
  sketch.name_public = name_public != 0;
  PIYE_ASSIGN_OR_RETURN(const uint8_t raw_type, dec.GetU8());
  if (raw_type > static_cast<uint8_t>(relational::ColumnType::kBool)) {
    return Status::InvalidArgument("sketch column type " +
                                   std::to_string(raw_type) + " out of range");
  }
  sketch.type = static_cast<relational::ColumnType>(raw_type);
  PIYE_ASSIGN_OR_RETURN(sketch.mean_length, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(sketch.digit_ratio, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(sketch.alpha_ratio, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(sketch.distinct_ratio, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(sketch.numeric_mean, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(sketch.numeric_stddev, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(const uint8_t has_filter, dec.GetU8());
  if (has_filter != 0) {
    PIYE_ASSIGN_OR_RETURN(const uint64_t num_bits, dec.GetU64());
    PIYE_ASSIGN_OR_RETURN(const uint64_t num_hashes, dec.GetU64());
    PIYE_ASSIGN_OR_RETURN(const std::string packed, dec.GetString());
    if (packed.size() != (num_bits + 7) / 8) {
      return Status::InvalidArgument(
          "bloom filter bit count disagrees with packed payload size");
    }
    if (num_hashes == 0 || num_hashes > 64) {
      return Status::InvalidArgument("bloom filter hash count " +
                                     std::to_string(num_hashes) +
                                     " out of range");
    }
    std::vector<bool> bits(num_bits, false);
    for (size_t i = 0; i < bits.size(); ++i) {
      bits[i] = (static_cast<uint8_t>(packed[i / 8]) >> (i % 8)) & 1u;
    }
    sketch.value_filter = linkage::BloomFilter::FromBits(
        std::move(bits), static_cast<size_t>(num_hashes));
  }
  return sketch;
}

/// A column tag's form travels as 0 (unrated) or 1 + DisclosureForm.
void PutFragmentResult(Encoder& enc,
                       const source::FederatedSource::FragmentResult& result) {
  relational::EncodeTable(result.table, &enc);
  enc.PutU64(result.column_tags.size());
  for (const source::ColumnTag& tag : result.column_tags) {
    enc.PutU8(tag.form ? 1 + static_cast<uint8_t>(*tag.form) : 0);
    enc.PutDouble(tag.budget);
  }
  enc.PutDouble(result.losses.privacy_loss);
  enc.PutDouble(result.losses.information_loss);
  enc.PutDouble(result.loss_budget);
}

Status GetFragmentResult(Decoder& dec, source::FederatedSource::FragmentResult* out) {
  PIYE_ASSIGN_OR_RETURN(out->table, relational::DecodeTable(&dec));
  PIYE_ASSIGN_OR_RETURN(const uint64_t tag_count, dec.GetU64());
  if (tag_count != out->table.num_columns()) {
    return Status::InvalidArgument("column tag count does not match the columns");
  }
  for (const relational::Column& column : out->table.schema().columns()) {
    source::ColumnTag& tag = out->column_tags.emplace_back();
    tag.name = column.name;
    PIYE_ASSIGN_OR_RETURN(const uint8_t form, dec.GetU8());
    if (form > 1 + static_cast<uint8_t>(policy::DisclosureForm::kExact)) {
      return Status::InvalidArgument("column tag form " + std::to_string(form));
    }
    if (form != 0) tag.form = static_cast<policy::DisclosureForm>(form - 1);
    PIYE_ASSIGN_OR_RETURN(tag.budget, dec.GetDouble());
  }
  PIYE_ASSIGN_OR_RETURN(out->losses.privacy_loss, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(out->losses.information_loss, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(out->loss_budget, dec.GetDouble());
  return Status::OK();
}

}  // namespace

std::string EncodeHello(const std::string& peer_name) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  enc.PutString(peer_name);
  return enc.Take();
}

Result<std::string> DecodeHello(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "Hello"));
  PIYE_ASSIGN_OR_RETURN(std::string peer_name, dec.GetString());
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "Hello"));
  return peer_name;
}

std::string EncodeHelloAck(const std::vector<std::string>& owners) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  enc.PutStringVector(owners);
  return enc.Take();
}

Result<std::vector<std::string>> DecodeHelloAck(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "HelloAck"));
  PIYE_ASSIGN_OR_RETURN(std::vector<std::string> owners, dec.GetStringVector());
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "HelloAck"));
  return owners;
}

std::string EncodeExecuteRequest(const ExecuteRequest& req) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  enc.PutString(req.owner);
  enc.PutString(req.fragment_xml);
  enc.PutU64(req.deadline_budget_ms);
  return enc.Take();
}

Result<ExecuteRequest> DecodeExecuteRequest(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "ExecuteRequest"));
  ExecuteRequest req;
  PIYE_ASSIGN_OR_RETURN(req.owner, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(req.fragment_xml, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(req.deadline_budget_ms, dec.GetU64());
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "ExecuteRequest"));
  return req;
}

std::string EncodeExecuteResponse(const ExecuteResponse& resp) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  PutStatus(enc, resp.status);
  PutFragmentResult(enc, resp.result);
  return enc.Take();
}

Result<ExecuteResponse> DecodeExecuteResponse(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "ExecuteResponse"));
  ExecuteResponse resp;
  PIYE_RETURN_NOT_OK(GetStatus(dec, &resp.status));
  PIYE_RETURN_NOT_OK(GetFragmentResult(dec, &resp.result));
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "ExecuteResponse"));
  return resp;
}

std::string EncodeSketchRequest(const SketchRequest& req) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  enc.PutString(req.owner);
  enc.PutString(req.shared_key);
  return enc.Take();
}

Result<SketchRequest> DecodeSketchRequest(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "SketchRequest"));
  SketchRequest req;
  PIYE_ASSIGN_OR_RETURN(req.owner, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(req.shared_key, dec.GetString());
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "SketchRequest"));
  return req;
}

std::string EncodeSketchResponse(const SketchResponse& resp) {
  Encoder enc;
  enc.PutU8(kWireSchemaVersion);
  PutStatus(enc, resp.status);
  enc.PutU64(resp.sketches.size());
  for (const match::ColumnSketch& sketch : resp.sketches) {
    PutSketch(enc, sketch);
  }
  return enc.Take();
}

Result<SketchResponse> DecodeSketchResponse(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckSchemaVersion(dec, "SketchResponse"));
  SketchResponse resp;
  PIYE_RETURN_NOT_OK(GetStatus(dec, &resp.status));
  PIYE_ASSIGN_OR_RETURN(const uint64_t count, dec.GetU64());
  // A sketch is ≥ 70 bytes on the wire; reject counts the payload cannot hold.
  if (count > payload.size()) {
    return Status::InvalidArgument("sketch count " + std::to_string(count) +
                                   " exceeds payload capacity");
  }
  resp.sketches.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    PIYE_ASSIGN_OR_RETURN(match::ColumnSketch sketch, GetSketch(dec));
    resp.sketches.push_back(std::move(sketch));
  }
  PIYE_RETURN_NOT_OK(CheckExhausted(dec, "SketchResponse"));
  return resp;
}

}  // namespace net
}  // namespace piye
