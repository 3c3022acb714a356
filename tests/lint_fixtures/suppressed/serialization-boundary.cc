// Fixture: an explicitly blessed one-off (e.g. a debug dumper).
#include "relational/table_codec.h"

namespace fixture {

std::string Dump(const piye::relational::Table& table) {
  // piye-lint: allow(serialization-boundary) debug dump, policy-tagged upstream
  return piye::relational::EncodeTable(table);
}

}  // namespace fixture
