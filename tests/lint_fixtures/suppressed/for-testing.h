// Fixture: a preceding-line suppression silences the rule.
#include <string>

namespace fixture {

class Source {
 public:
  // piye-lint: allow(for-testing) kept for one release while callers move
  void reset_for_testing() { raw_.clear(); }

 private:
  std::string raw_;
};

}  // namespace fixture
