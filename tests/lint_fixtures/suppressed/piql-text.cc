// Fixture: an explicitly blessed one-off (e.g. an operator's display).
#include "source/piql.h"
#include "xml/parser.h"

namespace fixture {

std::string Display(const piye::source::PiqlQuery& query) {
  // piye-lint: allow(piql-text) operator display, never sent or stored
  return piye::xml::Serialize(*query.ToXml());
}

}  // namespace fixture
