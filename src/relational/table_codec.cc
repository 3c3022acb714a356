#include "relational/table_codec.h"

#include <bit>

#include "common/macros.h"

namespace piye {
namespace relational {

namespace {

/// Bitmap bytes for `rows` cells, without overflowing near UINT64_MAX.
uint64_t BitmapBytes(uint64_t rows) { return rows / 8 + (rows % 8 != 0 ? 1 : 0); }

Status Malformed(const std::string& what) {
  return Status::ParseError("table decode: " + what);
}

Status GetCell(persist::Decoder* dec, ColumnVector* col) {
  switch (col->type()) {
    case ColumnType::kInt64: {
      PIYE_ASSIGN_OR_RETURN(const uint64_t v, dec->GetU64());
      col->AppendInt(static_cast<int64_t>(v));
      break;
    }
    case ColumnType::kDouble: {
      PIYE_ASSIGN_OR_RETURN(const double v, dec->GetDouble());
      col->AppendReal(v);
      break;
    }
    case ColumnType::kBool: {
      PIYE_ASSIGN_OR_RETURN(const uint8_t v, dec->GetU8());
      if (v > 1) return Malformed("bool cell " + std::to_string(v));
      col->AppendBool(v != 0);
      break;
    }
    case ColumnType::kString: {
      PIYE_ASSIGN_OR_RETURN(const std::string v, dec->GetString());
      col->AppendStr(v);
      break;
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeTable(const Table& table, persist::Encoder* enc) {
  const size_t rows = table.num_rows();
  enc->PutU64(rows);
  enc->PutU64(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnVector& col = table.col(c);
    enc->PutString(table.schema().column(c).name);
    enc->PutU8(static_cast<uint8_t>(col.type()));
    std::string bits(BitmapBytes(rows), '\0');
    for (size_t r = 0; r < rows; ++r) {
      if (!col.IsNull(r)) bits[r / 8] = static_cast<char>(bits[r / 8] | (1 << (r % 8)));
    }
    enc->PutString(bits);
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) continue;
      switch (col.type()) {
        case ColumnType::kInt64:
          enc->PutU64(static_cast<uint64_t>(col.IntAt(r)));
          break;
        case ColumnType::kDouble:
          enc->PutDouble(col.RealAt(r));
          break;
        case ColumnType::kBool:
          enc->PutU8(col.BoolAt(r) ? 1 : 0);
          break;
        case ColumnType::kString:
          enc->PutString(col.StrAt(r));
          break;
      }
    }
  }
}

Result<Table> DecodeTable(persist::Decoder* dec) {
  PIYE_ASSIGN_OR_RETURN(const uint64_t rows, dec->GetU64());
  PIYE_ASSIGN_OR_RETURN(const uint64_t columns, dec->GetU64());
  // A column costs at least its name prefix, type tag and bitmap prefix.
  if (columns > dec->remaining() / 17) return Malformed("column count exceeds payload");
  if (columns == 0 && rows != 0) return Malformed("rows without columns");
  Table table;
  for (uint64_t c = 0; c < columns; ++c) {
    PIYE_ASSIGN_OR_RETURN(std::string name, dec->GetString());
    PIYE_ASSIGN_OR_RETURN(const uint8_t type_tag, dec->GetU8());
    if (type_tag > static_cast<uint8_t>(ColumnType::kBool)) {
      return Malformed("unknown column type tag " + std::to_string(type_tag));
    }
    const auto type = static_cast<ColumnType>(type_tag);
    // GetString checked the bitmap against the payload, so once its length
    // matches, it bounds `rows`.
    PIYE_ASSIGN_OR_RETURN(const std::string bits, dec->GetString());
    if (bits.size() != BitmapBytes(rows)) return Malformed("bitmap length mismatch");
    if (rows % 8 != 0 && (static_cast<uint8_t>(bits.back()) >> (rows % 8)) != 0) {
      return Malformed("bitmap padding bits set");
    }
    size_t present = 0;
    for (char byte : bits) present += std::popcount(static_cast<uint8_t>(byte));
    if (present > dec->remaining() / (type == ColumnType::kBool ? 1 : 8)) {
      return Malformed("cell count exceeds payload");
    }
    ColumnVector col(type);
    col.Reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      if ((static_cast<uint8_t>(bits[r / 8]) >> (r % 8)) & 1) {
        PIYE_RETURN_NOT_OK(GetCell(dec, &col));
      } else {
        col.AppendNull();
      }
    }
    table.AddColumn({std::move(name), type}, std::move(col));
  }
  return table;
}

std::string EncodeTable(const Table& table) {
  persist::Encoder enc;
  EncodeTable(table, &enc);
  return enc.Take();
}

}  // namespace relational
}  // namespace piye
