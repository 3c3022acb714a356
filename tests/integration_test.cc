#include <gtest/gtest.h>

#include <map>
#include <memory>

#include <cmath>

#include "core/baseline.h"
#include "core/outbreak.h"
#include "core/warehouse_miner.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "inference/privacy_loss.h"
#include "inference/snooping_attack.h"

namespace piye {
namespace core {
namespace {

// ===========================================================================
// End-to-end flows across the whole stack: the clinical world of Example 1
// driven through PrivateIye, and the attack/defense pair of Figure 1.
// ===========================================================================

class ClinicalWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tables = ClinicalScenario::MakePatientTables(40, 0.4, 77);
    mediator::MediationEngine::Options options;
    options.max_combined_loss = 0.95;
    system_ = std::make_unique<PrivateIye>(options);
    auto* hospital =
        system_->AddSource("hospital", "patients", std::move(tables.hospital), 1);
    auto* pharmacy =
        system_->AddSource("pharmacy", "rx", std::move(tables.pharmacy), 2);
    auto* lab = system_->AddSource("lab", "tests", std::move(tables.lab), 3);
    ClinicalScenario::ApplyPatientPolicies(hospital);
    ClinicalScenario::ApplyPatientPolicies(pharmacy);
    ClinicalScenario::ApplyPatientPolicies(lab);
    ASSERT_TRUE(system_->Initialize().ok());
  }

  std::unique_ptr<PrivateIye> system_;
};

TEST_F(ClinicalWorldTest, QueryXmlEndToEnd) {
  auto result = system_->QueryXml(R"(
    <query requester="analyst" purpose="research" maxLoss="0.95">
      <select>diagnosis</select>
      <where>diagnosis = 'diabetes'</where>
    </query>)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->table().num_rows(), 0u);
  for (size_t r = 0; r < result->table().num_rows(); ++r) {
    EXPECT_EQ(result->table().Cell(r, 0).AsString(), "diabetes");
  }
}

TEST_F(ClinicalWorldTest, NamesNeverLeaveAnySource) {
  auto result = system_->QueryXml(R"(
    <query requester="analyst" purpose="research" maxLoss="0.95">
      <select>name</select><select>dob</select>
    </query>)");
  // The loose matcher maps "name" to patientName at the pharmacy too; every
  // source must deny it, leaving only coarsened dob.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& col : result->table().schema().columns()) {
    EXPECT_EQ(col.name.find("name"), std::string::npos) << col.name;
    EXPECT_EQ(col.name.find("Name"), std::string::npos) << col.name;
  }
}

TEST_F(ClinicalWorldTest, PurposeBindingIsEnforcedEverywhere) {
  auto result = system_->QueryXml(R"(
    <query requester="analyst" purpose="marketing" maxLoss="1.0">
      <select>diagnosis</select>
    </query>)");
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(ClinicalWorldTest, MediatedSchemaIsQueryableGuide) {
  // A requester can discover what is integrable without seeing raw schemas.
  const auto& schema = system_->mediated_schema();
  EXPECT_GT(schema.attributes().size(), 3u);
  size_t multi_source = 0;
  for (const auto& attr : schema.attributes()) {
    if (attr.mappings.size() > 1) ++multi_source;
  }
  EXPECT_GE(multi_source, 2u);  // id and dob at least
}

// --- Figure 1 attack vs. defense, end to end ---

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto rates = ClinicalScenario::GroundTruthRates();
    ASSERT_TRUE(rates.ok()) << rates.status().ToString();
    rates_ = *rates;
  }
  std::vector<std::vector<double>> rates_;
};

TEST_F(Figure1Test, GroundTruthIsConsistentWithPublishedAggregates) {
  const auto published = inference::PublishedAggregates::Figure1();
  // Per-measure means within tolerance.
  for (size_t m = 0; m < 3; ++m) {
    double mean = 0.0;
    for (size_t p = 0; p < 4; ++p) mean += rates_[m][p];
    mean /= 4.0;
    EXPECT_NEAR(mean, published.measure_mean[m], 0.1) << m;
  }
  // HMO1's values are the paper's.
  EXPECT_NEAR(rates_[0][0], 75.0, 1e-6);
  EXPECT_NEAR(rates_[1][0], 56.0, 1e-6);
  EXPECT_NEAR(rates_[2][0], 43.0, 1e-6);
}

TEST_F(Figure1Test, NaiveIntegratorPublishesAndAttackSucceeds) {
  // Build the four HMO sources and integrate them naively (the Example 1
  // world): exact aggregates get published, and the snooping HMO recovers
  // tight intervals on everyone's sensitive rates.
  // The naive integrator is handed each HMO's raw compliance table.
  std::vector<relational::Table> raw;
  for (size_t p = 0; p < 4; ++p) {
    auto table = ClinicalScenario::HmoComplianceTable(p, rates_);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    raw.push_back(std::move(*table));
  }
  auto published_rows =
      NaiveIntegrator::PublishGroupedAggregates(raw, "test", "rate");
  ASSERT_TRUE(published_rows.ok());
  ASSERT_EQ(published_rows->size(), 3u);

  // The attack on the naively published exact aggregates.
  inference::PublishedAggregates published = inference::PublishedAggregates::Figure1();
  for (size_t m = 0; m < 3; ++m) {
    published.measure_mean[m] = (*published_rows)[m].mean;
    published.measure_sigma[m] = (*published_rows)[m].stddev;
  }
  for (size_t p = 0; p < 4; ++p) {
    double mean = 0.0;
    for (size_t m = 0; m < 3; ++m) mean += rates_[m][p];
    published.party_mean[p] = mean / 3.0;
  }
  published.tolerance = 0.005;  // naive integrator publishes full precision
  inference::AttackerKnowledge attacker;
  attacker.party_index = 0;
  attacker.own_values = {rates_[0][0], rates_[1][0], rates_[2][0]};
  inference::SnoopingAttack attack(42);
  auto result = attack.Run(published, attacker);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Breach: every unknown cell is narrowed far below the 100-point prior
  // and the inferred interval brackets the hidden truth.
  for (size_t m = 0; m < 3; ++m) {
    for (size_t p = 1; p < 4; ++p) {
      EXPECT_LT(result->intervals[m][p].width(), 25.0);
      EXPECT_GE(rates_[m][p], result->intervals[m][p].lo - 0.5);
      EXPECT_LE(rates_[m][p], result->intervals[m][p].hi + 0.5);
    }
  }
}

TEST(NaiveIntegratorTest, GroupWhoseFirstValueIsNullIsPublishedOnce) {
  // A group is listed at its first row, whether or not that row's value is
  // NULL; its later rows must not list it again.
  relational::Table table(relational::Schema{
      relational::Column{"test", relational::ColumnType::kString},
      relational::Column{"rate", relational::ColumnType::kDouble}});
  table.AppendRowUnchecked({relational::Value::Str("a"), relational::Value::Null()});
  table.AppendRowUnchecked({relational::Value::Str("a"), relational::Value::Real(1.0)});
  table.AppendRowUnchecked({relational::Value::Str("b"), relational::Value::Real(2.0)});
  auto rows = NaiveIntegrator::PublishGroupedAggregates({table}, "test", "rate");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].group, "a");
  EXPECT_EQ((*rows)[0].count, 1u);
  EXPECT_DOUBLE_EQ((*rows)[0].mean, 1.0);
  EXPECT_EQ((*rows)[1].group, "b");
}

TEST_F(Figure1Test, PrivateIyeControlBlocksTheBreach) {
  // The same disclosures routed through the mediator's privacy control with
  // an inference auditor: the early aggregates pass, the one that would
  // tighten some HMO's rate beyond the threshold is refused.
  mediator::PrivacyControl control(/*max_combined_loss=*/1.0,
                                   /*max_interval_loss=*/0.85);
  std::vector<std::vector<size_t>> cell(3, std::vector<size_t>(4));
  for (size_t m = 0; m < 3; ++m) {
    for (size_t p = 0; p < 4; ++p) {
      cell[m][p] = control.RegisterSensitiveCell(
          "rate" + std::to_string(m) + std::to_string(p), 0, 100, rates_[m][p]);
    }
  }
  size_t approved = 0, refused = 0;
  // Publish per-measure means, then sigmas, then per-party means — the full
  // Figure 1 release schedule.
  for (size_t m = 0; m < 3; ++m) {
    auto r = control.ApproveMeanDisclosure(cell[m], 0.05);
    r.ok() ? ++approved : ++refused;
  }
  for (size_t m = 0; m < 3; ++m) {
    auto r = control.ApproveStdDevDisclosure(cell[m], 0.05);
    r.ok() ? ++approved : ++refused;
  }
  for (size_t p = 0; p < 4; ++p) {
    std::vector<size_t> party_cells;
    for (size_t m = 0; m < 3; ++m) party_cells.push_back(cell[m][p]);
    auto r = control.ApproveMeanDisclosure(party_cells, 0.05);
    r.ok() ? ++approved : ++refused;
  }
  // Some disclosures go through (utility) but the full schedule is stopped
  // before any cell is pinned beyond the threshold (privacy).
  EXPECT_GT(approved, 0u);
  EXPECT_GT(refused, 0u);
  auto losses = control.CurrentLosses();
  ASSERT_TRUE(losses.ok());
  for (double l : *losses) EXPECT_LE(l, 0.85);
}

// --- Example 2: outbreak surveillance ---

TEST(OutbreakTest, SharingAcceleratesDetection) {
  const std::vector<std::string> countries{"sg", "hk", "cn", "ca"};
  const size_t days = 60, outbreak_day = 30, outbreak_at = 2;
  auto tables = OutbreakScenario::MakeCaseTables(countries, days, outbreak_day,
                                                 outbreak_at, 5);
  ASSERT_EQ(tables.size(), countries.size());

  // Daily totals with full sharing vs. only the non-outbreak countries
  // (the "China does not share" world).
  std::vector<double> shared(days, 0.0), unshared(days, 0.0);
  for (size_t c = 0; c < tables.size(); ++c) {
    for (size_t r = 0; r < tables[c].num_rows(); ++r) {
      const size_t d = static_cast<size_t>(tables[c].Cell(r, 0).AsInt());
      const double cases = static_cast<double>(tables[c].Cell(r, 2).AsInt());
      shared[d] += cases;
      if (c != outbreak_at) unshared[d] += cases;
    }
  }
  const long detect_shared = OutbreakScenario::DetectOutbreak(shared, 7, 2.0);
  const long detect_unshared = OutbreakScenario::DetectOutbreak(unshared, 7, 2.0);
  ASSERT_GT(detect_shared, 0);
  EXPECT_GE(detect_shared, static_cast<long>(outbreak_day));
  // Without the outbreak country's data the signal never appears (or far
  // later).
  EXPECT_TRUE(detect_unshared < 0 || detect_unshared > detect_shared);
}

TEST(OutbreakTest, PrivacyPreservingSharingStillDetects) {
  // Countries share only aggregate counts through PRIVATE-IYE; detection
  // works on the integrated aggregates without any row-level case data.
  const std::vector<std::string> countries{"sg", "hk", "cn"};
  const size_t days = 50, outbreak_day = 25;
  auto tables = OutbreakScenario::MakeCaseTables(countries, days, outbreak_day, 1, 9);

  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.99;
  options.max_cumulative_loss = 1000.0;
  PrivateIye system(options);
  for (size_t c = 0; c < countries.size(); ++c) {
    auto* src = system.AddSource(countries[c], "cases", std::move(tables[c]),
                                 static_cast<uint64_t>(c) + 1);
    // Policy: per-day case counts shared in aggregate form for
    // disease-surveillance only.
    policy::PrivacyPolicy policy(countries[c], {});
    policy::PolicyRule cases_rule;
    cases_rule.id = "cases-aggregate";
    cases_rule.item = {"*", "cases"};
    cases_rule.purposes = {"disease-surveillance"};
    cases_rule.recipients = {"*"};
    cases_rule.form = policy::DisclosureForm::kAggregate;
    cases_rule.max_privacy_loss = 0.9;
    policy.AddRule(cases_rule);
    policy::PolicyRule day_rule;
    day_rule.id = "day-public";
    day_rule.item = {"*", "day"};
    day_rule.purposes = {"*"};
    day_rule.recipients = {"*"};
    day_rule.form = policy::DisclosureForm::kExact;
    policy.AddRule(day_rule);
    (void)src->mutable_policies()->AddPolicy(std::move(policy));
    (void)src->mutable_rbac()->AddRole("who");
    (void)src->mutable_rbac()->AssignRole("who", "who");
    (void)src->mutable_rbac()->Grant("who", access::Action::kSelect, "*", "*");
  }
  ASSERT_TRUE(system.Initialize().ok());

  auto result = system.QueryXml(R"(
    <query requester="who" purpose="disease-surveillance" maxLoss="0.95">
      <aggregate func="SUM" attribute="cases"><groupBy>day</groupBy></aggregate>
    </query>)",
                                {.allow_warehouse = false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 3u);

  // Reassemble the integrated daily curve and detect.
  std::map<int64_t, double> by_day;
  auto day_idx = result->table().schema().IndexOf("day");
  auto sum_idx = result->table().schema().IndexOf("sum_cases");
  ASSERT_TRUE(day_idx.ok()) << result->table().schema().ToString();
  ASSERT_TRUE(sum_idx.ok()) << result->table().schema().ToString();
  for (size_t r = 0; r < result->table().num_rows(); ++r) {
    by_day[result->table().Cell(r, *day_idx).AsInt()] +=
        result->table().Cell(r, *sum_idx).AsDouble();
  }
  std::vector<double> curve;
  for (size_t d = 0; d < days; ++d) curve.push_back(by_day[static_cast<int64_t>(d)]);
  const long detected = OutbreakScenario::DetectOutbreak(curve, 7, 2.0);
  EXPECT_GT(detected, static_cast<long>(outbreak_day) - 1);
}

}  // namespace
}  // namespace core
}  // namespace piye

namespace piye {
namespace core {
namespace {

// --- Mining over the privacy-preserved warehouse ---

TEST(WarehouseMinerTest, FrequentItemsetsAndRules) {
  relational::Table t(relational::Schema{
      relational::Column{"diagnosis", relational::ColumnType::kString},
      relational::Column{"drug", relational::ColumnType::kString},
      relational::Column{"age", relational::ColumnType::kInt64}});
  // diabetes strongly co-occurs with metformin.
  for (int i = 0; i < 40; ++i) {
    t.AppendRowUnchecked({relational::Value::Str("diabetes"),
                          relational::Value::Str("metformin"),
                          relational::Value::Int(50)});
  }
  for (int i = 0; i < 10; ++i) {
    t.AppendRowUnchecked({relational::Value::Str("asthma"),
                          relational::Value::Str("albuterol"),
                          relational::Value::Int(30)});
  }
  for (int i = 0; i < 5; ++i) {
    t.AppendRowUnchecked({relational::Value::Str("diabetes"),
                          relational::Value::Str("lisinopril"),
                          relational::Value::Int(60)});
  }
  auto itemsets = WarehouseMiner::FrequentItemsets(t, 0.15, 2);
  ASSERT_TRUE(itemsets.ok()) << itemsets.status().ToString();
  ASSERT_FALSE(itemsets->empty());
  // The top itemset is diagnosis=diabetes (45/55).
  EXPECT_EQ((*itemsets)[0].items,
            std::vector<std::string>{"diagnosis=diabetes"});
  EXPECT_NEAR((*itemsets)[0].support, 45.0 / 55.0, 1e-9);

  auto rules = WarehouseMiner::AssociationRules(t, 0.15, 0.6, 2);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.lhs == std::vector<std::string>{"drug=metformin"} &&
        rule.rhs == "diagnosis=diabetes") {
      found = true;
      EXPECT_NEAR(rule.confidence, 1.0, 1e-9);
      EXPECT_GT(rule.lift, 1.1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WarehouseMinerTest, RejectsBadSupport) {
  relational::Table t(relational::Schema{
      relational::Column{"a", relational::ColumnType::kString}});
  EXPECT_FALSE(WarehouseMiner::FrequentItemsets(t, 0.0).ok());
  EXPECT_FALSE(WarehouseMiner::FrequentItemsets(t, 1.5).ok());
}

TEST(WarehouseMinerTest, TrendSlopesFindTheOutbreak) {
  const std::vector<std::string> countries{"sg", "cn"};
  auto tables = OutbreakScenario::MakeCaseTables(countries, 40, 10, 1, 3);
  // Both regions in one table (same schema), so the miner groups them.
  relational::Table both(tables[0].schema());
  for (const auto& t : tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      both.AppendRowUnchecked({t.Cell(r, 0), t.Cell(r, 1), t.Cell(r, 2)});
    }
  }
  auto slopes = WarehouseMiner::TrendSlopes(both, "region", "day", "cases");
  ASSERT_TRUE(slopes.ok()) << slopes.status().ToString();
  ASSERT_EQ(slopes->size(), 2u);
  // The outbreak country's trend dominates the endemic one.
  EXPECT_GT(slopes->at("cn"), 5.0 * std::max(0.1, std::fabs(slopes->at("sg"))));
}

TEST(WarehouseMinerTest, EndToEndMiningOnIntegratedResults) {
  // Mine the *privacy-preserved* integrated table of the clinical world:
  // diagnosis arrives exact, dob arrives generalized — the miner sees only
  // what the pipeline released.
  auto tables = ClinicalScenario::MakePatientTables(60, 0.4, 99);
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  PrivateIye system(options);
  auto* hospital =
      system.AddSource("hospital", "patients", std::move(tables.hospital), 1);
  ClinicalScenario::ApplyPatientPolicies(hospital);
  ASSERT_TRUE(system.Initialize().ok());
  auto result = system.QueryXml(R"(
    <query requester="analyst" purpose="research" maxLoss="0.95">
      <select>diagnosis</select><select>sex</select><select>dob</select>
    </query>)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto itemsets = WarehouseMiner::FrequentItemsets(result->table(), 0.1, 2);
  ASSERT_TRUE(itemsets.ok());
  EXPECT_FALSE(itemsets->empty());
  // Items are over released (coarsened) values: any dob item is a decade
  // prefix, never a full date.
  for (const auto& is : *itemsets) {
    for (const auto& item : is.items) {
      if (item.rfind("dob=", 0) == 0) {
        EXPECT_NE(item.find('*'), std::string::npos) << item;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace piye
