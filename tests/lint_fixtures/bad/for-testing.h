// Fixture: a test-only accessor that reads around the source's policies.
#include <string>

namespace fixture {

class Source {
 public:
  const std::string& raw_table_for_testing() const { return raw_; }

 private:
  std::string raw_;
};

}  // namespace fixture
