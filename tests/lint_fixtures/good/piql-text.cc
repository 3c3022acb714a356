// Fixture: past the front door a query travels as its canonical key.
#include "source/piql.h"

namespace fixture {

std::string WireForm(const piye::source::PiqlQuery& fragment) {
  return fragment.CanonicalKey();
}

}  // namespace fixture
