#ifndef PIYE_XML_NODE_H_
#define PIYE_XML_NODE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace piye {
namespace xml {

/// A node in the in-memory XML document model used throughout PRIVATE-IYE:
/// remote sources export results as XML, the mediator integrates XML, and
/// privacy metadata is attached as XML attributes (see source/metadata_tagger).
///
/// The model is deliberately small: elements with ordered attributes and
/// children, plus text nodes. Ownership is strict — each node owns its
/// children via unique_ptr, and a document owns its root.
class XmlNode {
 public:
  enum class Type { kElement, kText };

  /// Creates an element node.
  static std::unique_ptr<XmlNode> Element(std::string name) {
    return std::unique_ptr<XmlNode>(new XmlNode(Type::kElement, std::move(name)));
  }
  /// Creates a text node.
  static std::unique_ptr<XmlNode> Text(std::string text) {
    return std::unique_ptr<XmlNode>(new XmlNode(Type::kText, std::move(text)));
  }

  Type type() const { return type_; }
  bool is_element() const { return type_ == Type::kElement; }
  bool is_text() const { return type_ == Type::kText; }

  /// Element name (elements) or text content (text nodes).
  const std::string& name() const { return name_; }
  const std::string& text() const { return name_; }
  void set_text(std::string text) { name_ = std::move(text); }

  // --- Attributes (elements only) ---

  void SetAttr(std::string key, std::string value);
  /// Returns the attribute value or nullptr.
  const std::string* GetAttr(std::string_view key) const;
  bool HasAttr(std::string_view key) const { return GetAttr(key) != nullptr; }
  void RemoveAttr(std::string_view key);
  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  // --- Children ---

  /// Appends a child and returns a raw pointer to it (ownership stays here).
  XmlNode* AddChild(std::unique_ptr<XmlNode> child);
  /// Convenience: appends an element child.
  XmlNode* AddElement(const std::string& name);
  /// Convenience: appends an element child containing a single text node.
  XmlNode* AddElementWithText(const std::string& name, const std::string& text);
  /// Appends a text child.
  void AddText(std::string text);
  /// Removes the child at `index`.
  void RemoveChild(size_t index);

  const std::vector<std::unique_ptr<XmlNode>>& children() const { return children_; }
  std::vector<std::unique_ptr<XmlNode>>& mutable_children() { return children_; }

  /// First child element with the given name, or nullptr.
  const XmlNode* FirstChild(std::string_view name) const;
  XmlNode* FirstChild(std::string_view name);
  /// All child elements with the given name.
  std::vector<const XmlNode*> Children(std::string_view name) const;
  /// All child elements.
  std::vector<const XmlNode*> ChildElements() const;

  /// Concatenated text of all descendant text nodes.
  std::string InnerText() const;
  /// Text of the named child element ("" if absent) — the common accessor for
  /// record-shaped XML.
  std::string ChildText(std::string_view name) const;

  /// Deep copy.
  std::unique_ptr<XmlNode> Clone() const;

  /// Number of element nodes in this subtree (including this one).
  size_t CountElements() const;

 private:
  XmlNode(Type type, std::string name) : type_(type), name_(std::move(name)) {}

  Type type_;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// An XML document: a single owned root element.
class XmlDocument {
 public:
  XmlDocument() = default;
  explicit XmlDocument(std::unique_ptr<XmlNode> root) : root_(std::move(root)) {}

  bool has_root() const { return root_ != nullptr; }
  const XmlNode& root() const { return *root_; }
  XmlNode& mutable_root() { return *root_; }
  void set_root(std::unique_ptr<XmlNode> root) { root_ = std::move(root); }

  XmlDocument Clone() const {
    return root_ ? XmlDocument(root_->Clone()) : XmlDocument();
  }

 private:
  std::unique_ptr<XmlNode> root_;
};

}  // namespace xml
}  // namespace piye

#endif  // PIYE_XML_NODE_H_
