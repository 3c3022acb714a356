#ifndef PIYE_POLICY_PRIVACY_VIEW_H_
#define PIYE_POLICY_PRIVACY_VIEW_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "policy/policy.h"
#include "relational/executor.h"
#include "relational/expression.h"
#include "relational/table.h"
#include "xml/node.h"

namespace piye {
namespace policy {

/// The second declarative language of Section 3: a *privacy view* defines
/// which part of a source table is private. It names the columns that remain
/// visible, the rows that are exportable, and the maximal disclosure form of
/// each sensitive column that is visible only in coarsened form.
struct SensitiveColumn {
  std::string name;
  DisclosureForm max_form = DisclosureForm::kAggregate;
};

class PrivacyView {
 public:
  PrivacyView() = default;
  PrivacyView(std::string name, std::string table)
      : name_(std::move(name)), table_(std::move(table)) {}

  const std::string& name() const { return name_; }
  const std::string& table() const { return table_; }

  void AddVisibleColumn(std::string column) { visible_.push_back(std::move(column)); }
  void AddSensitiveColumn(SensitiveColumn col) { sensitive_.push_back(std::move(col)); }
  void set_row_filter(relational::ExprPtr filter) { row_filter_ = std::move(filter); }

  /// Maximal disclosure form this view allows for a column: kExact for
  /// visible columns, the declared form for sensitive ones, kDenied for
  /// columns the view does not mention.
  DisclosureForm FormFor(const std::string& column) const;

  /// Materializes the view over `base`: applies the row filter and projects
  /// away every column whose form is kDenied. Sensitive (coarsenable)
  /// columns are kept — downstream preservation coarsens them.
  Result<relational::Table> Apply(const relational::Table& base) const;

  /// XML form:
  ///   <privacyView name="public_compliance" table="compliance">
  ///     <visible>hmo</visible>
  ///     <sensitive column="rate" form="aggregate"/>
  ///     <rowFilter>year = 2001</rowFilter>
  ///   </privacyView>
  std::unique_ptr<xml::XmlNode> ToXml() const;
  static Result<PrivacyView> FromXml(const xml::XmlNode& node);
  static Result<PrivacyView> Parse(std::string_view xml_text);

 private:
  std::string name_;
  std::string table_;
  std::vector<std::string> visible_;
  std::vector<SensitiveColumn> sensitive_;
  relational::ExprPtr row_filter_;
};

}  // namespace policy
}  // namespace piye

#endif  // PIYE_POLICY_PRIVACY_VIEW_H_
