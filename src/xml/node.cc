#include "xml/node.h"

namespace piye {
namespace xml {

void XmlNode::SetAttr(std::string key, std::string value) {
  for (auto& kv : attrs_) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::move(key), std::move(value));
}

const std::string* XmlNode::GetAttr(std::string_view key) const {
  for (const auto& kv : attrs_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

XmlNode* XmlNode::AddChild(std::unique_ptr<XmlNode> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

XmlNode* XmlNode::AddElement(const std::string& name) {
  return AddChild(Element(name));
}

XmlNode* XmlNode::AddElementWithText(const std::string& name,
                                     const std::string& text) {
  XmlNode* el = AddElement(name);
  el->AddText(text);
  return el;
}

void XmlNode::AddText(std::string text) { AddChild(Text(std::move(text))); }

const XmlNode* XmlNode::FirstChild(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->is_element() && c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::Children(std::string_view name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_) {
    if (c->is_element() && c->name() == name) out.push_back(c.get());
  }
  return out;
}

std::vector<const XmlNode*> XmlNode::ChildElements() const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_) {
    if (c->is_element()) out.push_back(c.get());
  }
  return out;
}

std::string XmlNode::InnerText() const {
  if (is_text()) return name_;
  std::string out;
  for (const auto& c : children_) out += c->InnerText();
  return out;
}

std::string XmlNode::ChildText(std::string_view name) const {
  const XmlNode* c = FirstChild(name);
  return c ? c->InnerText() : std::string();
}

}  // namespace xml
}  // namespace piye
