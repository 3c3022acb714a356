// Fixture: the mediator consumes the typed tables sources hand it; only the
// blessed seams turn them into bytes.
#include "relational/table.h"

namespace fixture {

size_t Rows(const piye::relational::Table& table) {
  return table.num_rows();
}

}  // namespace fixture
