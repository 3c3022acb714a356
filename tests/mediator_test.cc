#include <gtest/gtest.h>

#include <memory>

#include "core/scenario.h"
#include "mediator/engine.h"
#include "mediator/fragmenter.h"
#include "mediator/history.h"
#include "mediator/privacy_control.h"
#include "mediator/result_integrator.h"
#include "mediator/warehouse.h"
#include "source/remote_source.h"

namespace piye {
namespace mediator {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- History ---

TEST(QueryHistoryTest, RecordsAndAccumulates) {
  QueryHistory history;
  HistoryEntry e1;
  e1.requester = "cdc";
  e1.aggregated_privacy_loss = 0.2;
  e1.released = true;
  EXPECT_EQ(history.Record(e1), 0u);
  HistoryEntry e2 = e1;
  e2.aggregated_privacy_loss = 0.3;
  EXPECT_EQ(history.Record(e2), 1u);
  HistoryEntry refused = e1;
  refused.released = false;
  refused.aggregated_privacy_loss = 9.0;
  history.Record(refused);
  EXPECT_NEAR(history.CumulativeLoss("cdc"), 0.5, 1e-12);  // refused not counted
  EXPECT_EQ(history.ForRequester("cdc").size(), 3u);
  EXPECT_EQ(history.ForRequester("other").size(), 0u);
}

// --- Warehouse ---

TEST(WarehouseTest, FreshnessWindow) {
  Warehouse warehouse;
  Table t(Schema{Column{"x", ColumnType::kInt64}});
  (void)t.AppendRow(Row{Value::Int(1)});
  warehouse.Put("q1", t, /*epoch=*/5);
  EXPECT_NE(warehouse.Get("q1", 5, 0), nullptr);
  EXPECT_NE(warehouse.Get("q1", 6, 1), nullptr);
  EXPECT_EQ(warehouse.Get("q1", 7, 1), nullptr);
  EXPECT_EQ(warehouse.Get("missing", 5, 10), nullptr);
  EXPECT_EQ(warehouse.hits(), 2u);
  EXPECT_EQ(warehouse.misses(), 2u);
  warehouse.EvictOlderThan(6);
  EXPECT_EQ(warehouse.size(), 0u);
}

TEST(WarehouseTest, PutKeepsMaxEpochEntry) {
  Warehouse warehouse;
  Table fresh(Schema{Column{"x", ColumnType::kInt64}});
  (void)fresh.AppendRow(Row{Value::Int(2)});
  Table stale(Schema{Column{"x", ColumnType::kInt64}});
  (void)stale.AppendRow(Row{Value::Int(1)});

  warehouse.Put("q1", fresh, /*epoch=*/7);
  // A stale writer (e.g. a recovery replay of an old WAL record) must not
  // roll the materialization back.
  warehouse.Put("q1", stale, /*epoch=*/3);
  auto handle = warehouse.Get("q1", 7, 0);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->row(0)[0].AsInt(), 2);

  // Same-epoch and newer-epoch puts replace as usual.
  Table newer(Schema{Column{"x", ColumnType::kInt64}});
  (void)newer.AppendRow(Row{Value::Int(9)});
  warehouse.Put("q1", newer, /*epoch=*/8);
  handle = warehouse.Get("q1", 8, 0);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->row(0)[0].AsInt(), 9);
  EXPECT_EQ(warehouse.size(), 1u);
}

// --- Privacy control ---

TEST(PrivacyControlTest, LossCombination) {
  EXPECT_DOUBLE_EQ(PrivacyControl::CombineLosses({}), 0.0);
  EXPECT_DOUBLE_EQ(PrivacyControl::CombineLosses({0.5}), 0.5);
  EXPECT_NEAR(PrivacyControl::CombineLosses({0.5, 0.5}), 0.75, 1e-12);
  // Combination always exceeds each individual loss.
  EXPECT_GT(PrivacyControl::CombineLosses({0.3, 0.3}), 0.3);
}

TEST(PrivacyControlTest, ChecksCombinedAgainstBudgets) {
  PrivacyControl control(/*max_combined_loss=*/0.6, /*max_interval_loss=*/1.0);
  // Results without per-column tags: the result-level loss and budget act
  // as the single accounted item.
  auto make_result = [](double loss, double budget) {
    PrivacyControl::TaggedResult r;
    r.owner = "src";
    r.privacy_loss = loss;
    r.loss_budget = budget;
    return r;
  };
  // Two results at 0.3 combine to 0.51 <= 0.6 and within budgets 0.7.
  const auto a = make_result(0.3, 0.7);
  const auto b = make_result(0.3, 0.7);
  auto ok = control.CheckIntegratedResults({a, b});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NEAR(*ok, 0.51, 1e-12);
  // A third result pushes past the engine maximum.
  const auto c = make_result(0.3, 0.7);
  auto too_much = control.CheckIntegratedResults({a, b, c});
  EXPECT_TRUE(too_much.status().IsPrivacyViolation());
  // Or past a single source's budget even under the engine max: the paper's
  // "k' > k after integration" situation.
  const auto tight = make_result(0.3, 0.4);
  auto violates_budget = control.CheckIntegratedResults({a, tight});
  EXPECT_TRUE(violates_budget.status().IsPrivacyViolation());
}

TEST(PrivacyControlTest, AccountsPerTaggedColumn) {
  PrivacyControl control(/*max_combined_loss=*/1.0, /*max_interval_loss=*/1.0);
  auto make_result = [](const std::string& owner,
                        std::vector<source::ColumnTag> tags) {
    PrivacyControl::TaggedResult r;
    r.owner = owner;
    r.column_tags = std::move(tags);
    r.privacy_loss = 0.9;  // ignored: some column carries a form
    r.loss_budget = 0.1;
    return r;
  };
  using policy::DisclosureForm;
  // Two exact `dob` columns (0.8 each) combine to 0.96 against b's 0.9
  // budget; the untagged `note` column takes no part.
  const auto a = make_result("a", {{"dob", DisclosureForm::kExact, 1.0},
                                   {"note", std::nullopt, 0.01}});
  const auto b = make_result("b", {{"dob", DisclosureForm::kExact, 0.9}});
  auto refused = control.CheckIntegratedResults({a, b});
  ASSERT_TRUE(refused.status().IsPrivacyViolation());
  EXPECT_NE(refused.status().message().find("'dob'"), std::string::npos);
  EXPECT_NE(refused.status().message().find("source 'b'"), std::string::npos);
  // Generalized (0.5) and range (0.3) combine to 0.65, within 0.9.
  const auto c = make_result("c", {{"dob", DisclosureForm::kGeneralized, 0.9}});
  const auto d = make_result("d", {{"dob", DisclosureForm::kRange, 1.0}});
  auto ok = control.CheckIntegratedResults({c, d});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NEAR(*ok, 0.65, 1e-12);
  // Unconstrained items (budget 1.0 everywhere) add nothing to the total.
  auto free = control.CheckIntegratedResults({a});
  ASSERT_TRUE(free.ok());
  EXPECT_EQ(*free, 0.0);
}

TEST(PrivacyControlTest, InferenceAuditDelegation) {
  PrivacyControl control(1.0, /*max_interval_loss=*/0.5);
  const size_t a = control.RegisterSensitiveCell("a", 0, 100, 70);
  const size_t b = control.RegisterSensitiveCell("b", 0, 100, 30);
  ASSERT_TRUE(control.ApproveMeanDisclosure({a, b}, 0.5).ok());
  EXPECT_TRUE(control.ApproveMeanDisclosure({a}, 0.5).status().IsPrivacyViolation());
  EXPECT_EQ(control.disclosures_committed(), 1u);
}

// --- Engine end-to-end over the patient scenario ---

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tables = core::ClinicalScenario::MakePatientTables(30, 0.5, 21);
    hospital_ = std::make_unique<source::RemoteSource>("hospital", "patients",
                                                       std::move(tables.hospital), 1);
    pharmacy_ = std::make_unique<source::RemoteSource>("pharmacy", "rx",
                                                       std::move(tables.pharmacy), 2);
    lab_ = std::make_unique<source::RemoteSource>("lab", "tests",
                                                  std::move(tables.lab), 3);
    core::ClinicalScenario::ApplyPatientPolicies(hospital_.get());
    core::ClinicalScenario::ApplyPatientPolicies(pharmacy_.get());
    core::ClinicalScenario::ApplyPatientPolicies(lab_.get());
    MediationEngine::Options options;
    options.max_combined_loss = 0.95;
    engine_ = std::make_unique<MediationEngine>(options);
    ASSERT_TRUE(engine_->RegisterSource(hospital_.get()).ok());
    ASSERT_TRUE(engine_->RegisterSource(pharmacy_.get()).ok());
    ASSERT_TRUE(engine_->RegisterSource(lab_.get()).ok());
    ASSERT_TRUE(engine_->GenerateMediatedSchema("shared-key").ok());
  }

  source::PiqlQuery MakeQuery(const std::string& body) {
    auto q = source::PiqlQuery::Parse(
        "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" + body +
        "</query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<source::RemoteSource> hospital_, pharmacy_, lab_;
  std::unique_ptr<MediationEngine> engine_;
};

TEST_F(EngineTest, MediatedSchemaUnifiesHeterogeneousColumns) {
  const auto& schema = engine_->mediated_schema();
  // The dob/dateOfBirth/birthdate columns should merge into one attribute.
  size_t dob_mappings = 0;
  for (const auto& attr : schema.attributes()) {
    bool is_dob = false;
    for (const auto& m : attr.mappings) {
      if (m.column == "dob" || m.column == "dateOfBirth" || m.column == "birthdate") {
        is_dob = true;
      }
    }
    if (is_dob) dob_mappings = std::max(dob_mappings, attr.mappings.size());
  }
  EXPECT_GE(dob_mappings, 3u);
}

TEST_F(EngineTest, IntegratesAcrossSources) {
  auto result = engine_->Execute(MakeQuery("<select>diagnosis</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only the hospital has a diagnosis column; pharmacy/lab are skipped.
  EXPECT_EQ(result->sources_answered.size(), 1u);
  EXPECT_EQ(result->sources_skipped.size(), 2u);
  EXPECT_GT(result->table().num_rows(), 0u);
  EXPECT_TRUE(result->table().schema().Contains("_source"));
}

TEST_F(EngineTest, SharedAttributeFansOut) {
  auto result = engine_->Execute(MakeQuery("<select>dob</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 3u);
  EXPECT_GT(result->combined_privacy_loss, 0.0);
  // Timings cover the pipeline stages.
  EXPECT_GE(result->timings.size(), 4u);
}

TEST_F(EngineTest, DedupByKeyRemovesCrossSourceDuplicates) {
  // id + drug: only the pharmacy has drug, so the same patient appears as
  // (id, NULL) and (id, drug) — whole-row distinct keeps both, PSI-style
  // key dedup collapses them.
  const char* body = "<select>patient_id</select><select>drug</select>";
  auto with_dups = engine_->Execute(MakeQuery(body));
  ASSERT_TRUE(with_dups.ok()) << with_dups.status().ToString();
  engine_->AdvanceEpoch();
  engine_->AdvanceEpoch();  // force the warehouse entry stale
  auto deduped = engine_->Execute(MakeQuery(body), {"patient_id"});
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  EXPECT_LT(deduped->table().num_rows(), with_dups->table().num_rows());
  EXPECT_GT(deduped->table().num_rows(), 0u);
}

TEST_F(EngineTest, WarehouseServesRepeatQuery) {
  const auto q = MakeQuery("<select>diagnosis</select>");
  auto first = engine_->Execute(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_warehouse);
  auto second = engine_->Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_warehouse);
  EXPECT_EQ(second->table().num_rows(), first->table().num_rows());
}

TEST_F(EngineTest, HistoryRecordsQueries) {
  (void)engine_->Execute(MakeQuery("<select>diagnosis</select>"));
  EXPECT_EQ(engine_->history()->size(), 1u);
  EXPECT_GT(engine_->history()->CumulativeLoss("analyst"), 0.0);
}

TEST_F(EngineTest, CumulativeBudgetExhausts) {
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 0.5;
  options.enable_warehouse = false;  // force live execution every time
  MediationEngine engine(options);
  ASSERT_TRUE(engine.RegisterSource(hospital_.get()).ok());
  ASSERT_TRUE(engine.GenerateMediatedSchema("k").ok());
  Status last = Status::OK();
  int released = 0;
  for (int i = 0; i < 10; ++i) {
    auto q = MakeQuery("<select>diagnosis</select><where>sex = '" +
                       std::string(i % 2 == 0 ? "F" : "M") + "'</where>");
    auto r = engine.Execute(q);
    if (r.ok()) {
      ++released;
    } else {
      last = r.status();
      break;
    }
  }
  EXPECT_GT(released, 0);
  EXPECT_TRUE(last.IsPrivacyViolation());
}

TEST_F(EngineTest, UnknownAttributeFailsCleanly) {
  auto result = engine_->Execute(MakeQuery("<select>dob</select>"
                                           "<where>spaceshipId = 7</where>"));
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, ExecuteBeforeSchemaGenerationFails) {
  MediationEngine fresh;
  ASSERT_TRUE(fresh.RegisterSource(hospital_.get()).ok());
  EXPECT_FALSE(fresh.Execute(MakeQuery("<select>dob</select>")).ok());
}

// --- Result integrator unit behaviour ---

TEST(ResultIntegratorTest, PadsMissingColumnsWithNull) {
  match::MediatedSchema schema;
  ResultIntegrator integrator(&schema);
  Table a(Schema{Column{"x", ColumnType::kInt64}});
  (void)a.AppendRow(Row{Value::Int(1)});
  Table b(Schema{Column{"x", ColumnType::kInt64}, Column{"y", ColumnType::kString}});
  (void)b.AppendRow(Row{Value::Int(2), Value::Str("v")});
  auto out = integrator.Integrate({{"s1", a}, {"s2", b}}, {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 2u);
  ASSERT_TRUE(out->schema().Contains("y"));
  EXPECT_TRUE(out->row(0)[1].is_null());   // s1 lacks y
  EXPECT_EQ(out->row(1)[1].AsString(), "v");
}

TEST(ResultIntegratorTest, WholeRowDistinctIgnoresProvenance) {
  match::MediatedSchema schema;
  ResultIntegrator integrator(&schema);
  Table a(Schema{Column{"x", ColumnType::kInt64}});
  (void)a.AppendRow(Row{Value::Int(1)});
  Table b = a;
  auto out = integrator.Integrate({{"s1", a}, {"s2", b}}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);  // identical payloads collapse
}

// --- Fragmenter unit behaviour ---

TEST_F(EngineTest, FragmenterSkipsIrrelevantSources) {
  QueryFragmenter fragmenter(&engine_->mediated_schema(),
                             source::DefaultClinicalNameMatcher());
  auto fragments = fragmenter.Fragment(MakeQuery("<select>drug</select>"),
                                       {"hospital", "pharmacy", "lab"});
  ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
  ASSERT_EQ(fragments->fragments.size(), 1u);
  EXPECT_EQ(fragments->fragments[0].source, "pharmacy");
  EXPECT_EQ(fragments->skipped.size(), 2u);
}

TEST_F(EngineTest, FragmenterTranslatesAttributeNames) {
  QueryFragmenter fragmenter(&engine_->mediated_schema(),
                             source::DefaultClinicalNameMatcher());
  auto fragments =
      fragmenter.Fragment(MakeQuery("<select>dob</select>"), {"pharmacy"});
  ASSERT_TRUE(fragments.ok());
  ASSERT_EQ(fragments->fragments.size(), 1u);
  // The pharmacy column is dateOfBirth; the fragment must use it.
  EXPECT_EQ(fragments->fragments[0].query.select[0], "dateOfBirth");
}

}  // namespace
}  // namespace mediator
}  // namespace piye
