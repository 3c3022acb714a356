// Suppressed: a cold one-shot rendering path may materialize rows when it
// says so.
#include "relational/table.h"

namespace piye {

void Render(const relational::Table& table) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    // piye-lint: allow(row-loop) cold path: one-shot report rendering
    const relational::Row row = table.row(r);
    (void)row;
  }
}

}  // namespace piye
