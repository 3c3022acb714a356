// Fixture: a counter tests read is named for what it counts. Prose about a
// raw_table_for_testing accessor, or a string naming one, is not code.
#include <cstdint>

namespace fixture {

class Source {
 public:
  /// Test hook: fragments answered so far.
  uint64_t calls() const { return calls_; }
  const char* Note() const { return "no raw_table_for_testing here"; }

 private:
  uint64_t calls_ = 0;
};

}  // namespace fixture
