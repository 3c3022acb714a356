#include "source/piql.h"

#include <charconv>
#include <set>

#include "common/macros.h"
#include "common/strings.h"
#include "persist/codec.h"
#include "xml/parser.h"

namespace piye {
namespace source {

namespace {

/// Bumped whenever the canonical key layout changes.
constexpr uint8_t kCanonicalKeyVersion = 1;

/// A presence byte of the canonical key: 0 or 1, nothing else.
Result<bool> GetFlag(persist::Decoder* dec) {
  PIYE_ASSIGN_OR_RETURN(const uint8_t flag, dec->GetU8());
  if (flag > 1) return Status::ParseError("PIQL key: flag byte " + std::to_string(flag));
  return flag == 1;
}

Result<relational::AggFunc> ParseAggFunc(const std::string& s) {
  const std::string t = strings::ToLower(strings::Trim(s));
  if (t == "count") return relational::AggFunc::kCount;
  if (t == "sum") return relational::AggFunc::kSum;
  if (t == "avg") return relational::AggFunc::kAvg;
  if (t == "min") return relational::AggFunc::kMin;
  if (t == "max") return relational::AggFunc::kMax;
  if (t == "stddev") return relational::AggFunc::kStdDev;
  return Status::ParseError("unknown aggregate function '" + s + "'");
}

/// `maxLoss`: the whole text is one number in [0, 1]. NaN is refused too,
/// since no loss compares greater than it and the tolerance gate would
/// never refuse.
Result<double> ParseMaxLoss(const std::string& text) {
  double loss = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, loss);
  if (ec != std::errc() || ptr != end || !(loss >= 0.0 && loss <= 1.0)) {
    return Status::ParseError("maxLoss must be a number in [0, 1], got '" + text + "'");
  }
  return loss;
}

}  // namespace

Result<PiqlQuery> PiqlQuery::Parse(std::string_view xml_text) {
  PIYE_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(xml_text));
  const xml::XmlNode& node = doc.root();
  if (node.name() != "query") {
    return Status::ParseError("expected <query>, got <" + node.name() + ">");
  }
  PiqlQuery q;
  if (const std::string* r = node.GetAttr("requester")) q.requester = *r;
  if (const std::string* p = node.GetAttr("purpose")) q.purpose = *p;
  if (const std::string* l = node.GetAttr("maxLoss")) {
    PIYE_ASSIGN_OR_RETURN(q.max_information_loss, ParseMaxLoss(*l));
  }
  if (const xml::XmlNode* target = node.FirstChild("target")) {
    if (const std::string* path = target->GetAttr("path")) q.target_path = *path;
  }
  for (const xml::XmlNode* sel : node.Children("select")) {
    q.select.push_back(strings::Trim(sel->InnerText()));
  }
  if (const xml::XmlNode* where = node.FirstChild("where")) {
    PIYE_ASSIGN_OR_RETURN(q.where, relational::ParseExpression(where->InnerText()));
  }
  if (const xml::XmlNode* agg = node.FirstChild("aggregate")) {
    PiqlAggregate spec;
    const std::string* func = agg->GetAttr("func");
    const std::string* attr = agg->GetAttr("attribute");
    if (func == nullptr || attr == nullptr) {
      return Status::ParseError("<aggregate> needs func and attribute");
    }
    PIYE_ASSIGN_OR_RETURN(spec.func, ParseAggFunc(*func));
    spec.attribute = *attr;
    for (const xml::XmlNode* g : agg->Children("groupBy")) {
      spec.group_by.push_back(strings::Trim(g->InnerText()));
    }
    q.aggregate = std::move(spec);
  }
  return q;
}

std::unique_ptr<xml::XmlNode> PiqlQuery::ToXml() const {
  auto node = xml::XmlNode::Element("query");
  node->SetAttr("requester", requester);
  node->SetAttr("purpose", purpose);
  node->SetAttr("maxLoss", relational::Value::Real(max_information_loss).ToString());
  xml::XmlNode* target = node->AddElement("target");
  target->SetAttr("path", target_path);
  for (const auto& s : select) node->AddElementWithText("select", s);
  if (where != nullptr) node->AddElementWithText("where", where->ToString());
  if (aggregate.has_value()) {
    xml::XmlNode* agg = node->AddElement("aggregate");
    agg->SetAttr("func", relational::AggFuncToString(aggregate->func));
    agg->SetAttr("attribute", aggregate->attribute);
    for (const auto& g : aggregate->group_by) agg->AddElementWithText("groupBy", g);
  }
  return node;
}

void PiqlQuery::AppendCanonicalKey(persist::Encoder* enc) const {
  enc->PutU8(kCanonicalKeyVersion);
  enc->PutString(requester);
  enc->PutString(purpose);
  enc->PutDouble(max_information_loss);
  enc->PutString(target_path);
  enc->PutStringVector(select);
  enc->PutU8(where != nullptr ? 1 : 0);
  if (where != nullptr) where->AppendCanonicalKey(enc);
  enc->PutU8(aggregate.has_value() ? 1 : 0);
  if (aggregate.has_value()) {
    enc->PutU8(static_cast<uint8_t>(aggregate->func));
    enc->PutString(aggregate->attribute);
    enc->PutStringVector(aggregate->group_by);
  }
}

std::string PiqlQuery::CanonicalKey() const {
  persist::Encoder enc;
  AppendCanonicalKey(&enc);
  return enc.Take();
}

Result<PiqlQuery> PiqlQuery::Decode(std::string_view key) {
  persist::Decoder dec(key);
  PIYE_ASSIGN_OR_RETURN(const uint8_t version, dec.GetU8());
  if (version != kCanonicalKeyVersion) {
    return Status::ParseError("PIQL key version " + std::to_string(version) +
                              " != expected " + std::to_string(kCanonicalKeyVersion));
  }
  PiqlQuery q;
  PIYE_ASSIGN_OR_RETURN(q.requester, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(q.purpose, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(q.max_information_loss, dec.GetDouble());
  PIYE_ASSIGN_OR_RETURN(q.target_path, dec.GetString());
  PIYE_ASSIGN_OR_RETURN(q.select, dec.GetStringVector());
  PIYE_ASSIGN_OR_RETURN(const bool has_where, GetFlag(&dec));
  if (has_where) {
    PIYE_ASSIGN_OR_RETURN(q.where, relational::Expression::DecodeCanonicalKey(&dec));
  }
  PIYE_ASSIGN_OR_RETURN(const bool has_aggregate, GetFlag(&dec));
  if (has_aggregate) {
    PiqlAggregate spec;
    PIYE_ASSIGN_OR_RETURN(const uint8_t func, dec.GetU8());
    if (func > static_cast<uint8_t>(relational::AggFunc::kStdDev)) {
      return Status::ParseError("PIQL key: unknown aggregate function " +
                                std::to_string(func));
    }
    spec.func = static_cast<relational::AggFunc>(func);
    PIYE_ASSIGN_OR_RETURN(spec.attribute, dec.GetString());
    PIYE_ASSIGN_OR_RETURN(spec.group_by, dec.GetStringVector());
    q.aggregate = std::move(spec);
  }
  if (!dec.exhausted()) {
    return Status::ParseError("PIQL key: " + std::to_string(dec.remaining()) +
                              " trailing bytes");
  }
  return q;
}

std::vector<std::string> PiqlQuery::ReferencedAttributes() const {
  std::set<std::string> names(select.begin(), select.end());
  if (where != nullptr) {
    std::set<std::string> cols;
    where->CollectColumns(&cols);
    names.insert(cols.begin(), cols.end());
  }
  if (aggregate.has_value()) {
    if (!aggregate->attribute.empty()) names.insert(aggregate->attribute);
    names.insert(aggregate->group_by.begin(), aggregate->group_by.end());
  }
  return std::vector<std::string>(names.begin(), names.end());
}

}  // namespace source
}  // namespace piye
