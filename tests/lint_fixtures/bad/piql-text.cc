// Fixture: a fragment rendered as XML text on its way to a source (this
// file is linted under a src/mediator/ virtual path).
#include "source/piql.h"
#include "xml/parser.h"

namespace fixture {

std::string WireForm(const piye::source::PiqlQuery& fragment) {
  return piye::xml::Serialize(*fragment.ToXml(), /*indent=*/-1);
}

}  // namespace fixture
