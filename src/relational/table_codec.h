#ifndef PIYE_RELATIONAL_TABLE_CODEC_H_
#define PIYE_RELATIONAL_TABLE_CODEC_H_

#include <string>

#include "common/result.h"
#include "persist/codec.h"
#include "relational/table.h"

namespace piye {
namespace relational {

/// The one binary format of a released table: the wire payload of a source
/// answer and the warehouse entries of the WAL and snapshots. Layout, on
/// persist's little-endian codec:
///
///   u64 rows, u64 columns, then per column: string name, u8 ColumnType,
///   string validity bitmap (ceil(rows/8) bytes, bit set = present,
///   padding bits zero), then one cell per present row: INT64 as u64,
///   DOUBLE as its IEEE-754 bits, BOOL as u8 0/1, STRING as a string.
///
/// Names are opaque bytes, so any name survives, duplicates included, and
/// cells keep their exact bits. The decoder checks every count against the
/// bytes that remain before it sizes anything (a column's storage is at
/// most 8 bytes per bitmap bit) and fails with kParseError on truncation,
/// an unknown type tag, a bitmap of the wrong length or with padding bits
/// set, a bool other than 0/1, or rows without columns.
void EncodeTable(const Table& table, persist::Encoder* enc);
Result<Table> DecodeTable(persist::Decoder* dec);

/// The encoding as a string: a byte-exact digest of the table.
std::string EncodeTable(const Table& table);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_TABLE_CODEC_H_
