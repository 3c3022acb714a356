// Quickstart: stand up two heterogeneous sources with privacy policies,
// generate the mediated schema, and run an integrated PIQL query.
//
//   $ ./build/examples/quickstart

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/private_iye.h"
#include "policy/policy.h"

using piye::core::PrivateIye;
using piye::policy::DisclosureForm;
using piye::policy::PolicyRule;
using piye::policy::PrivacyPolicy;
using piye::relational::Column;
using piye::relational::ColumnType;
using piye::relational::Row;
using piye::relational::Schema;
using piye::relational::Table;
using piye::relational::Value;

namespace {

/// Prints `t` as aligned columns: a header of column names, then one line
/// per row, each cell padded to its column's widest entry plus two spaces.
void PrintTable(const Table& t) {
  std::vector<size_t> widths(t.num_columns());
  std::vector<std::vector<std::string>> cells(t.num_rows());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    widths[c] = t.schema().column(c).name.size();
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      cells[r].push_back(t.Cell(r, c).ToDisplayString());
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  auto print_line = [&widths](auto cell) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& text = cell(c);
      std::printf("%s%*s", text.c_str(), static_cast<int>(widths[c] - text.size() + 2), "");
    }
    std::printf("\n");
  };
  print_line([&t](size_t c) -> const std::string& { return t.schema().column(c).name; });
  for (const auto& row : cells) {
    print_line([&row](size_t c) -> const std::string& { return row[c]; });
  }
}

Table HospitalTable() {
  Table t(Schema{Column{"patient_id", ColumnType::kString},
                 Column{"name", ColumnType::kString},
                 Column{"dob", ColumnType::kString},
                 Column{"diagnosis", ColumnType::kString}});
  struct P {
    const char *id, *name, *dob, *dx;
  };
  // Note one 1950s outlier: with k = 3 suppression the released result drops
  // that row — its decade bucket would identify the patient.
  const P patients[] = {
      {"P1", "maria tan", "1970-01-02", "diabetes"},
      {"P2", "james lee", "1971-03-14", "asthma"},
      {"P3", "wei garcia", "1974-07-21", "diabetes"},
      {"P4", "fatima weber", "1972-11-30", "hypertension"},
      {"P5", "ivan sato", "1982-03-04", "asthma"},
      {"P6", "chloe novak", "1985-09-17", "diabetes"},
      {"P7", "raj silva", "1988-12-25", "diabetes"},
      {"P8", "sofia patel", "1955-05-06", "diabetes"},
  };
  for (const P& p : patients) {
    (void)t.AppendRow(
        Row{Value::Str(p.id), Value::Str(p.name), Value::Str(p.dob), Value::Str(p.dx)});
  }
  return t;
}

Table PharmacyTable() {
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"dateOfBirth", ColumnType::kString},
                 Column{"drug", ColumnType::kString}});
  struct P {
    const char *id, *dob, *drug;
  };
  const P fills[] = {
      {"P1", "1970-01-02", "metformin"},
      {"P2", "1971-03-14", "albuterol"},
      {"P3", "1974-07-21", "metformin"},
      {"P9", "1991-07-08", "albuterol"},  // lone 1990s patient: suppressed
  };
  for (const P& p : fills) {
    (void)t.AppendRow(Row{Value::Str(p.id), Value::Str(p.dob), Value::Str(p.drug)});
  }
  return t;
}

// Grants `column` in `form` for healthcare purposes with a loss budget.
void Grant(PrivacyPolicy* policy, const char* column, DisclosureForm form,
           double budget) {
  PolicyRule rule;
  rule.id = std::string(column) + "-rule";
  rule.item = {"*", column};
  rule.purposes = {"healthcare"};
  rule.recipients = {"*"};
  rule.form = form;
  rule.max_privacy_loss = budget;
  policy->AddRule(rule);
}

}  // namespace

int main() {
  PrivateIye system;

  // 1. Register sources. Note the heterogeneous column names (dob vs
  //    dateOfBirth, patient_id vs pid) — nobody reconciles them by hand.
  auto* hospital = system.AddSource("hospital", "patients", HospitalTable());
  auto* pharmacy = system.AddSource("pharmacy", "prescriptions", PharmacyTable());

  // 2. Each source declares its own privacy policy. Patient names get no
  //    rule at all: PRIVATE-IYE denies by default.
  PrivacyPolicy hospital_policy("hospital", {});
  Grant(&hospital_policy, "patient_id", DisclosureForm::kExact, 1.0);
  Grant(&hospital_policy, "dob", DisclosureForm::kRange, 0.6);
  Grant(&hospital_policy, "diagnosis", DisclosureForm::kExact, 0.9);
  (void)hospital->mutable_policies()->AddPolicy(std::move(hospital_policy));

  PrivacyPolicy pharmacy_policy("pharmacy", {});
  Grant(&pharmacy_policy, "pid", DisclosureForm::kExact, 1.0);
  Grant(&pharmacy_policy, "dateOfBirth", DisclosureForm::kRange, 0.6);
  Grant(&pharmacy_policy, "drug", DisclosureForm::kExact, 0.9);
  (void)pharmacy->mutable_policies()->AddPolicy(std::move(pharmacy_policy));

  // 3. Access control: the researcher role may SELECT what policy allows.
  for (auto* src : {hospital, pharmacy}) {
    (void)src->mutable_rbac()->AddRole("researcher");
    (void)src->mutable_rbac()->AssignRole("cdc", "researcher");
    (void)src->mutable_rbac()->Grant("researcher", piye::access::Action::kSelect,
                                     "*", "*");
  }

  // 4. Build the mediated schema from privacy-respecting sketches.
  if (auto st = system.Initialize(); !st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Mediated schema:\n");
  for (const auto& attr : system.mediated_schema().attributes()) {
    std::printf("  %-12s <- %zu source column(s)\n", attr.name.c_str(),
                attr.mappings.size());
  }

  // 5. Query in PIQL: loose attribute names, stated purpose, loss tolerance.
  auto result = system.QueryXml(R"(
    <query requester="cdc" purpose="research" maxLoss="0.9">
      <select>patientId</select>
      <select>birthDate</select>
      <select>diagnosis</select>
      <select>drug</select>
    </query>)");
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nIntegrated result (%zu rows, combined privacy loss %.2f):\n",
              result->table().num_rows(), result->combined_privacy_loss);
  PrintTable(result->table());
  std::printf("\n");

  // 6. The same query for a disallowed purpose is refused outright.
  auto refused = system.QueryXml(R"(
    <query requester="cdc" purpose="marketing" maxLoss="1.0">
      <select>diagnosis</select>
    </query>)");
  std::printf("Marketing purpose: %s\n",
              refused.ok() ? "allowed (?!)" : refused.status().ToString().c_str());
  return 0;
}
