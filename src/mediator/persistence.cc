#include "mediator/persistence.h"

#include <utility>

#include "common/macros.h"
#include "persist/codec.h"
#include "relational/table_codec.h"

namespace piye {
namespace mediator {

namespace {

using persist::Decoder;
using persist::Encoder;

/// Payload schema version, bumped on any incompatible layout change. A
/// mismatch is a decode error, on which recovery refuses to start (fail
/// closed), never a silent misread. v2 stores warehouse tables in the
/// binary table codec instead of XML text; v3 keys warehouse puts by the
/// engine's canonical binary warehouse key instead of the query's XML text;
/// v4 stores that key in each history entry instead of the query's XML text.
constexpr uint8_t kVersion = 4;

/// Snapshot layout version. v2 added `total_history` (the logical entry
/// count, so compaction can drop ring entries without forgetting how many
/// queries the mediator has answered); v3 stores warehouse tables in the
/// binary table codec; v4 keys warehouse entries by the canonical binary
/// warehouse key; v5 holds history entries by that key instead of XML text.
/// WAL record payloads keep their own `kVersion` above.
constexpr uint8_t kSnapshotVersion = 5;

Status CheckVersion(Decoder& dec) {
  PIYE_ASSIGN_OR_RETURN(uint8_t version, dec.GetU8());
  if (version != kVersion) {
    return Status::ParseError("persisted mediator record version " +
                              std::to_string(version) + " != expected " +
                              std::to_string(kVersion));
  }
  return Status::OK();
}

void PutHistoryEntry(Encoder& enc, const HistoryEntry& e) {
  enc.PutU64(e.sequence_number);
  enc.PutString(e.requester);
  enc.PutString(e.purpose);
  enc.PutString(e.query_key);
  enc.PutStringVector(e.sources_answered);
  enc.PutStringVector(e.sources_refused);
  enc.PutDouble(e.aggregated_privacy_loss);
  enc.PutU8(e.released ? 1 : 0);
}

Result<HistoryEntry> GetHistoryEntry(Decoder& dec) {
  HistoryEntry e;
  PIYE_ASSIGN_OR_RETURN(uint64_t seq, dec.GetU64());
  e.sequence_number = seq;
  PIYE_ASSIGN_OR_RETURN(e.requester, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(e.purpose, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(e.query_key, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(e.sources_answered, dec.GetStringVector());
  PIYE_ASSIGN_OR_RETURN(e.sources_refused, dec.GetStringVector());
  PIYE_ASSIGN_OR_RETURN(e.aggregated_privacy_loss, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(uint8_t released, dec.GetU8());
  e.released = released != 0;
  return e;
}

void PutCell(Encoder& enc, const PrivacyControl::SensitiveCellSpec& cell) {
  enc.PutString(cell.name);
  enc.PutDouble(cell.lo);
  enc.PutDouble(cell.hi);
  enc.PutDouble(cell.true_value);
}

Result<PrivacyControl::SensitiveCellSpec> GetCell(Decoder& dec) {
  PrivacyControl::SensitiveCellSpec cell;
  PIYE_ASSIGN_OR_RETURN(cell.name, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(cell.lo, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(cell.hi, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(cell.true_value, dec.GetDouble());
  return cell;
}

void PutDisclosure(Encoder& enc, const PrivacyControl::DisclosureSpec& spec) {
  enc.PutU16(spec.kind);
  enc.PutU64Vector(spec.cells);
  enc.PutDouble(spec.tol);
}

Result<PrivacyControl::DisclosureSpec> GetDisclosure(Decoder& dec) {
  PrivacyControl::DisclosureSpec spec;
  PIYE_ASSIGN_OR_RETURN(spec.kind, dec.GetU16());
  if (spec.kind != PrivacyControl::DisclosureSpec::kMean &&
      spec.kind != PrivacyControl::DisclosureSpec::kStdDev) {
    return Status::ParseError("persisted disclosure: unknown kind " +
                              std::to_string(spec.kind));
  }
  PIYE_ASSIGN_OR_RETURN(spec.cells, dec.GetU64Vector());
  PIYE_ASSIGN_OR_RETURN(spec.tol, dec.GetDouble());
  return spec;
}

}  // namespace

std::string EncodeHistoryRecord(const HistoryRecord& record) {
  Encoder enc;
  enc.PutU8(kVersion);
  PutHistoryEntry(enc, record.entry);
  enc.PutDouble(record.cumulative_after);
  return enc.Take();
}

Result<HistoryRecord> DecodeHistoryRecord(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckVersion(dec));
  HistoryRecord record;
  PIYE_ASSIGN_OR_RETURN(record.entry, GetHistoryEntry(dec));
  PIYE_ASSIGN_OR_RETURN(record.cumulative_after, dec.GetDouble());
  return record;
}

std::string EncodeWarehousePutRecord(const std::string& fingerprint,
                                     uint64_t epoch,
                                     const relational::Table& table) {
  Encoder enc;
  enc.PutU8(kVersion);
  enc.PutString(fingerprint);
  enc.PutU64(epoch);
  relational::EncodeTable(table, &enc);
  return enc.Take();
}

Result<Warehouse::SnapshotEntry> DecodeWarehousePutRecord(
    const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckVersion(dec));
  Warehouse::SnapshotEntry entry;
  PIYE_ASSIGN_OR_RETURN(entry.fingerprint, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(entry.epoch, dec.GetU64());
  PIYE_ASSIGN_OR_RETURN(relational::Table table, relational::DecodeTable(&dec));
  if (!dec.exhausted()) {
    return Status::ParseError("persisted warehouse put: trailing bytes");
  }
  entry.table = std::make_shared<const relational::Table>(std::move(table));
  return entry;
}

std::string EncodeEpochRecord(uint64_t epoch) {
  Encoder enc;
  enc.PutU8(kVersion);
  enc.PutU64(epoch);
  return enc.Take();
}

Result<uint64_t> DecodeEpochRecord(const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckVersion(dec));
  return dec.GetU64();
}

std::string EncodeWarehouseEvictRecord(uint64_t epoch_horizon) {
  return EncodeEpochRecord(epoch_horizon);
}

Result<uint64_t> DecodeWarehouseEvictRecord(const std::string& payload) {
  return DecodeEpochRecord(payload);
}

std::string EncodeCellRecord(const PrivacyControl::SensitiveCellSpec& cell) {
  Encoder enc;
  enc.PutU8(kVersion);
  PutCell(enc, cell);
  return enc.Take();
}

Result<PrivacyControl::SensitiveCellSpec> DecodeCellRecord(
    const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckVersion(dec));
  return GetCell(dec);
}

std::string EncodeDisclosureRecord(const PrivacyControl::DisclosureSpec& spec) {
  Encoder enc;
  enc.PutU8(kVersion);
  PutDisclosure(enc, spec);
  return enc.Take();
}

Result<PrivacyControl::DisclosureSpec> DecodeDisclosureRecord(
    const std::string& payload) {
  Decoder dec(payload);
  PIYE_RETURN_NOT_OK(CheckVersion(dec));
  return GetDisclosure(dec);
}

std::string EncodeSnapshot(const DurableState& state) {
  Encoder enc;
  enc.PutU8(kSnapshotVersion);
  enc.PutU64(state.total_history);
  enc.PutU64(state.history.size());
  for (const auto& e : state.history) PutHistoryEntry(enc, e);
  enc.PutU64(state.cumulative_loss.size());
  for (const auto& [requester, loss] : state.cumulative_loss) {
    enc.PutString(requester);
    enc.PutDouble(loss);
  }
  enc.PutU64(state.epoch);
  enc.PutU64(state.warehouse.size());
  for (const auto& w : state.warehouse) {
    enc.PutString(w.fingerprint);
    enc.PutU64(w.epoch);
    relational::EncodeTable(*w.table, &enc);
  }
  enc.PutU64(state.cells.size());
  for (const auto& c : state.cells) PutCell(enc, c);
  enc.PutU64(state.disclosures.size());
  for (const auto& d : state.disclosures) PutDisclosure(enc, d);
  return enc.Take();
}

Result<DurableState> DecodeSnapshot(const std::string& blob) {
  Decoder dec(blob);
  PIYE_ASSIGN_OR_RETURN(uint8_t version, dec.GetU8());
  if (version != kSnapshotVersion) {
    return Status::ParseError("persisted snapshot version " +
                              std::to_string(version) + " != expected " +
                              std::to_string(kSnapshotVersion));
  }
  DurableState state;
  PIYE_ASSIGN_OR_RETURN(state.total_history, dec.GetU64());
  PIYE_ASSIGN_OR_RETURN(uint64_t history_count, dec.GetU64());
  for (uint64_t i = 0; i < history_count; ++i) {
    PIYE_ASSIGN_OR_RETURN(HistoryEntry e, GetHistoryEntry(dec));
    state.history.push_back(std::move(e));
  }
  PIYE_ASSIGN_OR_RETURN(uint64_t loss_count, dec.GetU64());
  for (uint64_t i = 0; i < loss_count; ++i) {
    PIYE_ASSIGN_OR_RETURN(std::string requester, dec.GetString());
    PIYE_ASSIGN_OR_RETURN(double loss, dec.GetDouble());
    state.cumulative_loss[std::move(requester)] = loss;
  }
  PIYE_ASSIGN_OR_RETURN(state.epoch, dec.GetU64());
  PIYE_ASSIGN_OR_RETURN(uint64_t warehouse_count, dec.GetU64());
  for (uint64_t i = 0; i < warehouse_count; ++i) {
    Warehouse::SnapshotEntry w;
    PIYE_ASSIGN_OR_RETURN(w.fingerprint, dec.GetString());
    PIYE_ASSIGN_OR_RETURN(w.epoch, dec.GetU64());
    PIYE_ASSIGN_OR_RETURN(relational::Table table, relational::DecodeTable(&dec));
    w.table = std::make_shared<const relational::Table>(std::move(table));
    state.warehouse.push_back(std::move(w));
  }
  PIYE_ASSIGN_OR_RETURN(uint64_t cell_count, dec.GetU64());
  for (uint64_t i = 0; i < cell_count; ++i) {
    PIYE_ASSIGN_OR_RETURN(PrivacyControl::SensitiveCellSpec c, GetCell(dec));
    state.cells.push_back(std::move(c));
  }
  PIYE_ASSIGN_OR_RETURN(uint64_t disclosure_count, dec.GetU64());
  for (uint64_t i = 0; i < disclosure_count; ++i) {
    PIYE_ASSIGN_OR_RETURN(PrivacyControl::DisclosureSpec d, GetDisclosure(dec));
    state.disclosures.push_back(std::move(d));
  }
  if (!dec.exhausted()) {
    return Status::ParseError("persisted snapshot: trailing bytes");
  }
  return state;
}

}  // namespace mediator
}  // namespace piye
