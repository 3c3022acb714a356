#ifndef PIYE_XML_PARSER_H_
#define PIYE_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/node.h"

namespace piye {
namespace xml {

/// Resource limits applied while parsing. The parser sits on the engine's
/// trust boundary — fragment results arrive from autonomous remote sources —
/// so untrusted input must not be able to exhaust the stack (ParseElement
/// recurses per nesting level) or memory. The defaults are far above
/// anything the mediation pipeline produces; parsers of truly internal text
/// keep them implicitly.
struct ParseLimits {
  /// Inputs longer than this are rejected up front with kInvalidArgument.
  /// 0 ⇒ unlimited.
  size_t max_input_bytes = 8ull << 20;
  /// Maximum element nesting depth (root = depth 1); deeper documents are
  /// rejected with kParseError before the recursion can overflow the stack.
  size_t max_depth = 128;
};

/// Parses a well-formed XML fragment into an XmlDocument.
///
/// Supported subset: one root element, nested elements, attributes with
/// single- or double-quoted values, text content, comments (`<!-- -->`),
/// processing instructions / declarations (`<? ?>`, skipped), and the five
/// predefined entities. CDATA, DTDs, and namespaces-as-semantics are out of
/// scope — names containing ':' are treated as plain names.
Result<XmlDocument> Parse(std::string_view input);

/// Test hook: Parse with explicit resource limits (see ParseLimits), so
/// tests can reach the limits with small inputs.
Result<XmlDocument> Parse(std::string_view input, const ParseLimits& limits);

/// Serializes a node subtree. `indent` < 0 produces compact single-line
/// output; otherwise children are pretty-printed with `indent` spaces per
/// depth level. Text is entity-escaped on the way out, so Parse(Serialize(x))
/// round-trips.
std::string Serialize(const XmlNode& node, int indent = 2);

/// Serializes a whole document (adds the XML declaration header).
std::string Serialize(const XmlDocument& doc, int indent = 2);

}  // namespace xml
}  // namespace piye

#endif  // PIYE_XML_PARSER_H_
