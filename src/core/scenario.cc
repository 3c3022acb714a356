#include "core/scenario.h"

#include "common/macros.h"
#include "common/rng.h"
#include "common/strings.h"
#include "inference/nlp_solver.h"
#include "policy/policy.h"

namespace piye {
namespace core {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Table;
using relational::Value;

Result<Table> ClinicalScenario::HmoComplianceTable(
    size_t party_index, const std::vector<std::vector<double>>& rates) {
  const auto published = inference::PublishedAggregates::Figure1();
  if (party_index >= published.parties.size()) {
    return Status::OutOfRange("party index out of range");
  }
  Table table(relational::Schema{Column{"test", ColumnType::kString},
                                 Column{"rate", ColumnType::kDouble},
                                 Column{"year", ColumnType::kInt64}});
  for (size_t m = 0; m < published.measures.size(); ++m) {
    PIYE_RETURN_NOT_OK(table.AppendRow(Row{Value::Str(published.measures[m]),
                                           Value::Real(rates[m][party_index]),
                                           Value::Int(2001)}));
  }
  return table;
}

Result<std::vector<std::vector<double>>> ClinicalScenario::GroundTruthRates(
    uint64_t seed) {
  const auto published = inference::PublishedAggregates::Figure1();
  const auto attacker = inference::AttackerKnowledge::Figure1();
  PIYE_ASSIGN_OR_RETURN(inference::ConstraintSystem sys,
                        inference::SnoopingAttack::BuildSystem(published, attacker));
  inference::NlpBoundSolver solver(&sys, seed);
  PIYE_ASSIGN_OR_RETURN(std::vector<double> point, solver.FindFeasiblePoint());
  const size_t num_measures = published.measures.size();
  const size_t num_parties = published.parties.size();
  std::vector<std::vector<double>> rates(num_measures,
                                         std::vector<double>(num_parties));
  for (size_t m = 0; m < num_measures; ++m) {
    for (size_t p = 0; p < num_parties; ++p) {
      rates[m][p] = point[m * num_parties + p];
    }
  }
  return rates;
}

Result<std::unique_ptr<source::RemoteSource>> ClinicalScenario::MakeHmoSource(
    size_t party_index, const std::vector<std::vector<double>>& rates,
    uint64_t seed) {
  const auto published = inference::PublishedAggregates::Figure1();
  PIYE_ASSIGN_OR_RETURN(Table table, HmoComplianceTable(party_index, rates));
  const std::string owner = published.parties[party_index];
  auto src = std::make_unique<source::RemoteSource>(owner, "compliance",
                                                    std::move(table), seed);
  // Policy: each HMO "considers its own compliance rates ... as sensitive
  // data" — rate is aggregate-only; the test name and year are public.
  policy::PrivacyPolicy policy(owner, {});
  policy::PolicyRule rate_rule;
  rate_rule.id = "rate-aggregate-only";
  rate_rule.item = {"*", "rate"};
  rate_rule.purposes = {"healthcare"};
  rate_rule.recipients = {"*"};
  rate_rule.form = policy::DisclosureForm::kAggregate;
  rate_rule.max_privacy_loss = 0.3;
  policy.AddRule(rate_rule);
  policy::PolicyRule test_rule;
  test_rule.id = "test-public";
  test_rule.item = {"*", "test"};
  test_rule.purposes = {"*"};
  test_rule.recipients = {"*"};
  test_rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(test_rule);
  policy::PolicyRule year_rule;
  year_rule.id = "year-public";
  year_rule.item = {"*", "year"};
  year_rule.purposes = {"*"};
  year_rule.recipients = {"*"};
  year_rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(year_rule);
  PIYE_RETURN_NOT_OK(src->mutable_policies()->AddPolicy(std::move(policy)));
  // RBAC: the analyst role may read everything this source exports.
  PIYE_RETURN_NOT_OK(src->mutable_rbac()->AddRole("analyst"));
  PIYE_RETURN_NOT_OK(src->mutable_rbac()->AssignRole("analyst", "analyst"));
  PIYE_RETURN_NOT_OK(
      src->mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*"));
  return src;
}

namespace {

const char* kFirstNames[] = {"maria", "james", "wei",  "fatima", "ivan",
                             "chloe", "raj",   "sofia", "kenji",  "anna"};
const char* kLastNames[] = {"tan",   "smith", "garcia", "lee",  "patel",
                            "weber", "okafor", "sato",  "novak", "silva"};
const char* kDiagnoses[] = {"diabetes", "hypertension", "asthma", "sars",
                            "influenza"};
const char* kDrugs[] = {"metformin", "lisinopril", "albuterol", "ribavirin",
                        "oseltamivir"};
const char* kTests[] = {"HbA1c", "LDL", "urinalysis", "chest-xray"};

struct Patient {
  std::string id;
  std::string name;
  std::string dob;
  int64_t zip;
  std::string sex;
  std::string diagnosis;
};

Patient MakePatient(size_t index, Rng* rng) {
  Patient p;
  p.id = strings::Format("P%05zu", index);
  p.name = std::string(kFirstNames[rng->NextBounded(10)]) + " " +
           kLastNames[rng->NextBounded(10)];
  p.dob = strings::Format("19%02llu-%02llu-%02llu",
                          (unsigned long long)(30 + rng->NextBounded(60)),
                          (unsigned long long)(1 + rng->NextBounded(12)),
                          (unsigned long long)(1 + rng->NextBounded(28)));
  p.zip = static_cast<int64_t>(10000 + rng->NextBounded(89999));
  p.sex = rng->NextBernoulli(0.5) ? "F" : "M";
  p.diagnosis = kDiagnoses[rng->NextBounded(5)];
  return p;
}

}  // namespace

ClinicalScenario::PatientSources ClinicalScenario::MakePatientTables(
    size_t patients_per_source, double overlap, uint64_t seed) {
  Rng rng(seed);
  // A shared pool of patients; each source draws `patients_per_source` of
  // them, with the first `overlap` fraction common to all three.
  const size_t shared = static_cast<size_t>(overlap * patients_per_source);
  std::vector<Patient> pool;
  const size_t pool_size = shared + 3 * (patients_per_source - shared);
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) pool.push_back(MakePatient(i, &rng));

  auto draw = [&](size_t source_index) {
    std::vector<const Patient*> out;
    for (size_t i = 0; i < shared; ++i) out.push_back(&pool[i]);
    const size_t base = shared + source_index * (patients_per_source - shared);
    for (size_t i = 0; i < patients_per_source - shared; ++i) {
      out.push_back(&pool[base + i]);
    }
    return out;
  };

  PatientSources out{
      Table(relational::Schema{Column{"patient_id", ColumnType::kString},
                               Column{"name", ColumnType::kString},
                               Column{"dob", ColumnType::kString},
                               Column{"zip", ColumnType::kInt64},
                               Column{"sex", ColumnType::kString},
                               Column{"diagnosis", ColumnType::kString}}),
      Table(relational::Schema{Column{"pid", ColumnType::kString},
                               Column{"patientName", ColumnType::kString},
                               Column{"dateOfBirth", ColumnType::kString},
                               Column{"drug", ColumnType::kString}}),
      Table(relational::Schema{Column{"patient", ColumnType::kString},
                               Column{"birthdate", ColumnType::kString},
                               Column{"test", ColumnType::kString},
                               Column{"result", ColumnType::kDouble}})};
  for (const Patient* p : draw(0)) {
    out.hospital.AppendRowUnchecked(Row{Value::Str(p->id), Value::Str(p->name),
                                        Value::Str(p->dob), Value::Int(p->zip),
                                        Value::Str(p->sex),
                                        Value::Str(p->diagnosis)});
  }
  for (const Patient* p : draw(1)) {
    out.pharmacy.AppendRowUnchecked(Row{Value::Str(p->id), Value::Str(p->name),
                                        Value::Str(p->dob),
                                        Value::Str(kDrugs[rng.NextBounded(5)])});
  }
  for (const Patient* p : draw(2)) {
    out.lab.AppendRowUnchecked(Row{Value::Str(p->id), Value::Str(p->dob),
                                   Value::Str(kTests[rng.NextBounded(4)]),
                                   Value::Real(rng.NextUniform(3.0, 12.0))});
  }
  return out;
}

void ClinicalScenario::ApplyPatientPolicies(source::RemoteSource* src) {
  policy::PrivacyPolicy policy(src->owner(), {});
  auto add = [&policy](const std::string& column, policy::DisclosureForm form,
                       const std::string& purpose, double budget) {
    policy::PolicyRule rule;
    rule.id = column + "-rule";
    rule.item = {"*", column};
    rule.purposes = {purpose};
    rule.recipients = {"*"};
    rule.form = form;
    rule.max_privacy_loss = budget;
    policy.AddRule(rule);
  };
  for (const auto& col : src->schema().columns()) {
    const std::string lower = strings::ToLower(col.name);
    if (strings::ContainsIgnoreCase(lower, "name")) {
      continue;  // names: no rule at all ⇒ default deny
    }
    if (lower == "dob" || lower == "dateofbirth" || lower == "birthdate") {
      add(col.name, policy::DisclosureForm::kRange, "healthcare", 0.8);
    } else if (lower == "zip") {
      add(col.name, policy::DisclosureForm::kGeneralized, "healthcare", 0.7);
    } else if (lower == "diagnosis" || lower == "drug" || lower == "test") {
      add(col.name, policy::DisclosureForm::kExact, "healthcare", 0.8);
    } else {
      add(col.name, policy::DisclosureForm::kExact, "healthcare", 1.0);
    }
  }
  // Fixture wiring on a freshly built source: the only failure mode is a
  // duplicate name, which cannot occur here.
  (void)src->mutable_policies()->AddPolicy(std::move(policy));
  (void)src->mutable_rbac()->AddRole("analyst");
  (void)src->mutable_rbac()->AssignRole("analyst", "analyst");
  (void)src->mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*");
  (void)src->mutable_rbac()->AddRole("cdc");
  (void)src->mutable_rbac()->AssignRole("cdc", "cdc");
  (void)src->mutable_rbac()->Grant("cdc", access::Action::kSelect, "*", "*");
}

}  // namespace core
}  // namespace piye
