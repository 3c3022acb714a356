// Fixture: raw-record serialization away from the blessed seams (this file
// is linted under a src/mediator/ virtual path).
#include "relational/table_codec.h"

namespace fixture {

std::string Dump(const piye::relational::Table& table) {
  return piye::relational::EncodeTable(table);
}

}  // namespace fixture
