#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"

#include "core/scenario.h"
#include "relational/table_codec.h"
#include "source/loss_computation.h"
#include "source/optimizer.h"
#include "source/piql.h"
#include "source/preservation.h"
#include "source/privacy_rewriter.h"
#include "source/query_cluster.h"
#include "source/query_transformer.h"
#include "source/remote_source.h"
#include "xml/parser.h"

namespace piye {
namespace source {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- PIQL parsing ---

TEST(PiqlTest, ParseFullQuery) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="cdc" purpose="disease-surveillance" maxLoss="0.4">
      <target path="//patient"/>
      <select>dateOfBirth</select>
      <select>diagnosis</select>
      <where>diagnosis = 'diabetes'</where>
    </query>)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->requester, "cdc");
  EXPECT_EQ(q->purpose, "disease-surveillance");
  EXPECT_DOUBLE_EQ(q->max_information_loss, 0.4);
  EXPECT_EQ(q->select.size(), 2u);
  ASSERT_NE(q->where, nullptr);
  EXPECT_FALSE(q->IsAggregate());
}

TEST(PiqlTest, ParseAggregateQuery) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="analyst" purpose="research">
      <aggregate func="AVG" attribute="rate"><groupBy>test</groupBy></aggregate>
    </query>)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->IsAggregate());
  EXPECT_EQ(q->aggregate->func, relational::AggFunc::kAvg);
  EXPECT_EQ(q->aggregate->group_by.size(), 1u);
}

TEST(PiqlTest, XmlRoundTrip) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="r" purpose="research" maxLoss="0.5">
      <select>dob</select><where>zip = 13053</where>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto q2 = PiqlQuery::Parse(xml::Serialize(*q->ToXml()));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->requester, "r");
  EXPECT_EQ(q2->select, q->select);
  EXPECT_EQ(q2->where->ToString(), q->where->ToString());
}

TEST(PiqlTest, ReferencedAttributes) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>a</select><where>b = 1 AND c = 2</where></query>)");
  ASSERT_TRUE(q.ok());
  const auto attrs = q->ReferencedAttributes();
  EXPECT_EQ(std::set<std::string>(attrs.begin(), attrs.end()),
            (std::set<std::string>{"a", "b", "c"}));
}

TEST(PiqlTest, ParseErrors) {
  EXPECT_FALSE(PiqlQuery::Parse("<notquery/>").ok());
  EXPECT_FALSE(PiqlQuery::Parse(R"(<query><aggregate func="AVG"/></query>)").ok());
  EXPECT_FALSE(
      PiqlQuery::Parse(R"(<query><aggregate func="WAT" attribute="x"/></query>)").ok());
}

// --- Query transformer ---

Schema PatientSchema() {
  return Schema{Column{"patient_id", ColumnType::kString},
                Column{"dob", ColumnType::kString},
                Column{"zip", ColumnType::kInt64},
                Column{"diagnosis", ColumnType::kString}};
}

TEST(QueryTransformerTest, LooseNameResolution) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r" purpose="p">
      <select>dateOfBirth</select>
      <where>condition = 'diabetes'</where>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->bindings.at("dateOfBirth"), "dob");
  EXPECT_EQ(t->bindings.at("condition"), "diagnosis");  // synonym
  EXPECT_EQ(t->stmt.table, "patients");
  EXPECT_NE(t->stmt.where->ToString().find("diagnosis"), std::string::npos);
}

TEST(QueryTransformerTest, UnresolvedSelectIsTolerated) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>dob</select><select>bloodType</select></query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->stmt.items.size(), 1u);
  ASSERT_EQ(t->unresolved.size(), 1u);
  EXPECT_EQ(t->unresolved[0], "bloodType");
}

TEST(QueryTransformerTest, UnresolvedWhereFails) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>dob</select><where>bloodType = 'A'</where></query>)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(transformer.Transform(*q, "patients", PatientSchema()).ok());
}

TEST(QueryTransformerTest, AggregateAliasesUseMediatedNames) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r">
      <aggregate func="COUNT" attribute="diagnosis"><groupBy>zip</groupBy></aggregate>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->stmt.items.size(), 2u);
  EXPECT_EQ(t->stmt.items[0].alias, "zip");
  EXPECT_EQ(t->stmt.items[1].alias, "count_diagnosis");
}

// --- Privacy rewriter (via a configured source) ---

class RemoteSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.5, 11);
    src_ = std::make_unique<RemoteSource>("hospitalA", "patients",
                                          std::move(tables.hospital), 1);
    core::ClinicalScenario::ApplyPatientPolicies(src_.get());
  }

  PiqlQuery MakeQuery(const std::string& body) {
    auto q = PiqlQuery::Parse("<query requester=\"analyst\" purpose=\"research\" "
                              "maxLoss=\"0.9\">" + body + "</query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<RemoteSource> src_;
};

TEST_F(RemoteSourceTest, DeniedColumnIsStripped) {
  // `name` has no policy rule ⇒ default deny; dob and diagnosis survive.
  auto result = src_->ExecuteFragment(
      MakeQuery("<select>name</select><select>diagnosis</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->table.schema().Contains("name"));
  EXPECT_TRUE(result->table.schema().Contains("diagnosis"));
  ASSERT_EQ(result->denied_columns.size(), 1u);
  EXPECT_EQ(result->denied_columns[0], "name");
}

TEST_F(RemoteSourceTest, AllDeniedIsPrivacyViolation) {
  auto q = MakeQuery("<select>name</select>");
  q.max_information_loss = 1.0;
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, WrongPurposeDenied) {
  auto q = MakeQuery("<select>diagnosis</select>");
  q.purpose = "marketing";
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, RangeColumnsAreGeneralized) {
  auto result = src_->ExecuteFragment(MakeQuery("<select>zip</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // zip is kGeneralized ⇒ released as STRING ranges, never raw ints.
  ASSERT_TRUE(result->table.schema().Contains("zip"));
  auto idx = result->table.schema().IndexOf("zip");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(result->table.schema().column(*idx).type, ColumnType::kString);
  for (const auto& row : result->table.rows()) {
    if (row[*idx].is_null()) continue;
    EXPECT_NE(row[*idx].AsString().find('['), std::string::npos);
  }
}

TEST_F(RemoteSourceTest, RequesterInfoLossToleranceGates) {
  // Asking for 3 columns of which 1 is denied ⇒ info loss >= 1/3; a
  // requester tolerating only 0.1 is refused outright.
  auto q = MakeQuery(
      "<select>name</select><select>diagnosis</select><select>sex</select>");
  q.max_information_loss = 0.1;
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, ResultCarriesPrivacyTags) {
  auto result = src_->ExecuteFragment(MakeQuery("<select>diagnosis</select>"));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->losses.privacy_loss, 0.0);
  EXPECT_LE(result->loss_budget, 1.0);
  // One tag per released column, aligned by position, each carrying the
  // disclosure form the rewriter granted.
  ASSERT_EQ(result->column_tags.size(), result->table.num_columns());
  ASSERT_FALSE(result->column_tags.empty());
  for (size_t c = 0; c < result->column_tags.size(); ++c) {
    EXPECT_EQ(result->column_tags[c].name, result->table.schema().column(c).name);
  }
  EXPECT_TRUE(result->column_tags[0].form.has_value());
}

TEST_F(RemoteSourceTest, SketchesRespectPolicy) {
  src_->HideSchemaColumn("zip");  // zip's *name* is itself sensitive here
  auto sketches = src_->ExportSketches("shared");
  ASSERT_TRUE(sketches.ok());
  std::set<std::string> names;
  bool zip_hidden_name = false;
  for (const auto& s : *sketches) {
    names.insert(s.ref.column);
    if (!s.name_public) zip_hidden_name = true;
  }
  // name is denied: not exported at all.
  EXPECT_EQ(names.count("name"), 0u);
  // diagnosis is exact: exported with its public name.
  EXPECT_EQ(names.count("diagnosis"), 1u);
  // The hidden column exports only under a hashed tag.
  EXPECT_EQ(names.count("zip"), 0u);
  EXPECT_TRUE(zip_hidden_name);
}

// --- Cluster matching ---

TEST(QueryFeaturesTest, ExtractsShape) {
  auto stmt = relational::ParseSql(
      "SELECT city, AVG(rate) FROM t WHERE a = 1 AND b = 2 GROUP BY city");
  ASSERT_TRUE(stmt.ok());
  const QueryFeatures f = QueryFeatures::Extract(*stmt);
  EXPECT_DOUBLE_EQ(f.v[0], 1.0);  // aggregate
  EXPECT_DOUBLE_EQ(f.v[1], 1.0);  // one agg func
  EXPECT_GT(f.v[2], 2.0);         // predicate nodes
  EXPECT_DOUBLE_EQ(f.v[3], 0.0);  // not row-level
  EXPECT_DOUBLE_EQ(f.v[5], 1.0);  // grouped
}

TEST(ClusterStoreTest, DefaultStoreClassifiesCanonicalShapes) {
  const ClusterStore store = ClusterStore::Default();
  // A grouped aggregate maps to aggregate-inference.
  auto agg = relational::ParseSql("SELECT t, AVG(r) FROM c GROUP BY t");
  ASSERT_TRUE(agg.ok());
  const QueryCluster* c1 = store.Map(QueryFeatures::Extract(*agg));
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->breach, BreachClass::kAggregateInference);
  // A narrow row-level probe maps to attribute disclosure.
  auto probe = relational::ParseSql(
      "SELECT rate FROM c WHERE a = 1 AND b = 2 AND d = 3 LIMIT 1");
  ASSERT_TRUE(probe.ok());
  const QueryCluster* c2 = store.Map(QueryFeatures::Extract(*probe));
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->breach, BreachClass::kAttributeDisclosure);
}

TEST(ClusterStoreTest, UntrainedStoreMapsToNull) {
  ClusterStore store;
  auto stmt = relational::ParseSql("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(store.Map(QueryFeatures::Extract(*stmt)), nullptr);
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(3);
  std::vector<QueryFeatures> points;
  for (int i = 0; i < 40; ++i) {
    QueryFeatures f;
    f.v[0] = i < 20 ? 0.0 : 1.0;
    f.v[4] = i < 20 ? 8.0 : 1.0;
    points.push_back(f);
  }
  const auto centroids = KMeansCluster(points, 2, 20, &rng);
  ASSERT_EQ(centroids.size(), 2u);
  EXPECT_GT(std::fabs(centroids[0].v[4] - centroids[1].v[4]), 5.0);
}

// --- Loss computation & optimizer ---

TEST(LossComputationTest, FormWeightsAreMonotone) {
  using policy::DisclosureForm;
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kDenied),
            LossComputation::FormWeight(DisclosureForm::kAggregate));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kAggregate),
            LossComputation::FormWeight(DisclosureForm::kRange));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kRange),
            LossComputation::FormWeight(DisclosureForm::kGeneralized));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kGeneralized),
            LossComputation::FormWeight(DisclosureForm::kExact));
}

TEST(LossComputationTest, EstimatesBalanceBothLosses) {
  using policy::DisclosureForm;
  std::map<std::string, DisclosureForm> forms{{"a", DisclosureForm::kExact}};
  auto e = LossComputation::Estimate(forms, 0);
  EXPECT_DOUBLE_EQ(e.privacy_loss, 0.8);
  EXPECT_DOUBLE_EQ(e.information_loss, 0.0);  // exact delivery, full fidelity
  forms["a"] = DisclosureForm::kAggregate;
  e = LossComputation::Estimate(forms, 1);  // plus a denied column
  EXPECT_DOUBLE_EQ(e.privacy_loss, 0.1);
  EXPECT_NEAR(e.information_loss, (0.6 + 1.0) / 2.0, 1e-9);
}

TEST(OptimizerTest, SelectivePolicyPushesDown) {
  Table t(Schema{Column{"a", ColumnType::kInt64}});
  for (int i = 0; i < 1000; ++i) (void)t.AppendRow(Row{Value::Int(i % 100)});
  auto stmt = relational::ParseSql("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  auto selective = relational::ParseExpression("a < 5");
  ASSERT_TRUE(selective.ok());
  auto plan = PrivacyOptimizer::Choose(*stmt, t, *selective);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->push_policy_filter);
  EXPECT_NEAR(plan->estimated_policy_selectivity, 0.05, 0.03);
  EXPECT_FALSE(plan->steps.empty());
}

TEST(OptimizerTest, CostModelOrdersStrategies) {
  // Pushing a selective filter is cheaper than post-hoc filtering.
  const double pushed = PrivacyOptimizer::EstimateCost(
      100000, 0.01, /*push=*/true, /*agg=*/false, /*after=*/true, 1);
  const double post = PrivacyOptimizer::EstimateCost(
      100000, 0.01, /*push=*/false, /*agg=*/false, /*after=*/true, 1);
  EXPECT_LT(pushed, post);
  // Perturbing after aggregation touches fewer rows.
  const double after = PrivacyOptimizer::EstimateCost(
      100000, 1.0, true, /*agg=*/true, /*after=*/true, 10);
  const double before = PrivacyOptimizer::EstimateCost(
      100000, 1.0, true, /*agg=*/true, /*after=*/false, 10);
  EXPECT_LT(after, before);
}

// --- Preservation module ---

TEST(PreservationTest, RoundingCoarsensAggregates) {
  Table t(Schema{Column{"avg_rate", ColumnType::kDouble}});
  (void)t.AppendRow(Row{Value::Real(83.07)});
  const PreservationModule preservation;
  std::map<std::string, policy::DisclosureForm> forms{
      {"avg_rate", policy::DisclosureForm::kAggregate}};
  Rng rng(1);
  auto out = preservation.Apply(t, forms, /*budget=*/0.5, {Technique::kRounding}, &rng);
  ASSERT_TRUE(out.ok());
  const double v = out->row(0)[0].AsDouble();
  EXPECT_NE(v, 83.07);           // coarsened
  EXPECT_NEAR(v, 83.07, 2.0);    // but close
}

TEST(PreservationTest, SuppressionDropsUniqueRows) {
  Table t(Schema{Column{"g", ColumnType::kString}});
  for (const char* g : {"a", "a", "a", "b"}) {
    (void)t.AppendRow(Row{Value::Str(g)});
  }
  PreservationModule::Config config;
  config.k = 3;
  const PreservationModule preservation(config);
  Rng rng(1);
  const std::map<std::string, policy::DisclosureForm> forms{
      {"g", policy::DisclosureForm::kGeneralized}};
  auto out = preservation.Apply(t, forms, 1.0, {Technique::kSuppression}, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // the lone "b" is suppressed
}

TEST(PreservationTest, DefaultTechniquesFollowForms) {
  const PreservationModule preservation;
  using policy::DisclosureForm;
  auto techniques = preservation.DefaultTechniques(
      {{"a", DisclosureForm::kRange}, {"b", DisclosureForm::kAggregate}}, 0.2);
  std::set<Technique> set(techniques.begin(), techniques.end());
  EXPECT_TRUE(set.count(Technique::kGeneralization));
  EXPECT_TRUE(set.count(Technique::kRounding));
  EXPECT_TRUE(set.count(Technique::kNoiseAddition));
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- Privacy views inside the pipeline ---

class ViewedSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t(Schema{Column{"patient_id", ColumnType::kString},
                   Column{"diagnosis", ColumnType::kString},
                   Column{"consented", ColumnType::kBool}});
    (void)t.AppendRow(Row{Value::Str("P1"), Value::Str("diabetes"),
                          Value::Boolean(true)});
    (void)t.AppendRow(Row{Value::Str("P2"), Value::Str("asthma"),
                          Value::Boolean(false)});
    (void)t.AppendRow(Row{Value::Str("P3"), Value::Str("diabetes"),
                          Value::Boolean(true)});
    src_ = std::make_unique<RemoteSource>("clinic", "patients", std::move(t), 1);
    policy::PrivacyPolicy policy("clinic", {});
    policy::PolicyRule rule;
    rule.id = "all-healthcare";
    rule.item = {"*", "*"};
    rule.purposes = {"healthcare"};
    rule.recipients = {"*"};
    rule.form = policy::DisclosureForm::kExact;
    policy.AddRule(rule);
    (void)src_->mutable_policies()->AddPolicy(std::move(policy));
    (void)src_->mutable_rbac()->AddRole("analyst");
    (void)src_->mutable_rbac()->AssignRole("analyst", "analyst");
    (void)src_->mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*");
  }

  std::unique_ptr<RemoteSource> src_;
};

TEST_F(ViewedSourceTest, PrivacyViewGatesRowsAndColumns) {
  // Register a view: only consented rows exist, and the consent flag itself
  // is not exported.
  policy::PrivacyView view("consented_only", "patients");
  view.AddVisibleColumn("patient_id");
  view.AddVisibleColumn("diagnosis");
  auto filter = relational::ParseExpression("consented = TRUE");
  ASSERT_TRUE(filter.ok());
  view.set_row_filter(*filter);
  ASSERT_TRUE(src_->mutable_policies()->AddView("clinic", std::move(view)).ok());

  auto effective = src_->EffectiveTable();
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->num_rows(), 2u);
  EXPECT_FALSE(effective->schema().Contains("consented"));

  auto q = PiqlQuery::Parse(
      R"(<query requester="analyst" purpose="research" maxLoss="1.0">
           <select>diagnosis</select></query>)");
  ASSERT_TRUE(q.ok());
  auto result = src_->ExecuteFragment(*q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // P2 (unconsented) never appears — the view filtered it before any stage.
  EXPECT_EQ(result->table.num_rows(), 2u);

  // Sketches are view-scoped too: `consented` is invisible to the mediator.
  auto sketches = src_->ExportSketches("k");
  ASSERT_TRUE(sketches.ok());
  for (const auto& s : *sketches) {
    EXPECT_NE(s.ref.column, "consented");
  }
}

TEST_F(ViewedSourceTest, NoViewMeansRawTable) {
  auto effective = src_->EffectiveTable();
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->num_rows(), 3u);
  EXPECT_TRUE(effective->schema().Contains("consented"));
}

// --- Query-set-size restriction in the pipeline ---

TEST(QuerySetRestrictionTest, TrackerSizedAggregateRefused) {
  Rng rng(5);
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"age", ColumnType::kInt64},
                 Column{"rate", ColumnType::kDouble}});
  for (int i = 0; i < 40; ++i) {
    (void)t.AppendRow(Row{Value::Str("P" + std::to_string(i)),
                          Value::Int(20 + i),
                          Value::Real(rng.NextUniform(0, 100))});
  }
  RemoteSource src("hmo", "stats", std::move(t), 1);
  policy::PrivacyPolicy policy("hmo", {});
  policy::PolicyRule rate_rule;
  rate_rule.id = "rate-agg";
  rate_rule.item = {"*", "rate"};
  rate_rule.purposes = {"*"};
  rate_rule.recipients = {"*"};
  rate_rule.form = policy::DisclosureForm::kAggregate;
  policy.AddRule(rate_rule);
  policy::PolicyRule age_rule;
  age_rule.id = "age-exact";
  age_rule.item = {"*", "age"};
  age_rule.purposes = {"*"};
  age_rule.recipients = {"*"};
  age_rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(age_rule);
  (void)src.mutable_policies()->AddPolicy(std::move(policy));
  (void)src.mutable_rbac()->AddRole("r");
  (void)src.mutable_rbac()->AssignRole("u", "r");
  (void)src.mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");

  auto make = [](const std::string& where) {
    return *PiqlQuery::Parse(
        "<query requester=\"u\" purpose=\"any\" maxLoss=\"1.0\">"
        "<aggregate func=\"AVG\" attribute=\"rate\"/>"
        "<where>" + where + "</where></query>");
  };
  // A tracker: AVG over a single individual's row.
  auto tracker = src.ExecuteFragment(make("age = 25"));
  EXPECT_TRUE(tracker.status().IsPrivacyViolation()) << tracker.status().ToString();
  // A complement tracker: everyone but two people.
  auto complement = src.ExecuteFragment(make("age &lt; 58"));
  EXPECT_TRUE(complement.status().IsPrivacyViolation());
  // A healthy aggregate over half the table passes.
  auto fine = src.ExecuteFragment(make("age &lt; 40"));
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(XmlSourceTest, FromXmlRecordsRunsTheFullPipeline) {
  auto src = RemoteSource::FromXmlRecords("xml-clinic", "visits", R"(
    <visits>
      <visit><pid>P1</pid><dept>cardio</dept><cost>120.5</cost></visit>
      <visit><pid>P2</pid><dept>cardio</dept><cost>80.0</cost></visit>
      <visit><pid>P3</pid><dept>onco</dept><cost>310.25</cost></visit>
    </visits>)");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ((*src)->num_rows(), 3u);
  EXPECT_EQ((*src)->schema().ToString(), "pid:STRING, dept:STRING, cost:DOUBLE");
  policy::PrivacyPolicy policy("xml-clinic", {});
  policy::PolicyRule rule;
  rule.id = "all";
  rule.item = {"*", "*"};
  rule.purposes = {"*"};
  rule.recipients = {"*"};
  rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(rule);
  (void)(*src)->mutable_policies()->AddPolicy(std::move(policy));
  (void)(*src)->mutable_rbac()->AddRole("r");
  (void)(*src)->mutable_rbac()->AssignRole("u", "r");
  (void)(*src)->mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");
  auto q = PiqlQuery::Parse(
      R"(<query requester="u" purpose="any" maxLoss="1.0">
           <select>dept</select><where>cost &gt; 100</where></query>)");
  ASSERT_TRUE(q.ok());
  auto result = (*src)->ExecuteFragment(*q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 2u);
}

TEST(XmlSourceTest, MalformedXmlRejected) {
  EXPECT_FALSE(RemoteSource::FromXmlRecords("o", "t", "<broken>").ok());
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(DeterminismTest, SameSeedSameReleasedBytes) {
  // Reproducibility guarantee: rebuild the same source with the same seed
  // and the released (noised/rounded) table is byte-identical.
  auto build_and_query = [] {
    auto tables = core::ClinicalScenario::MakePatientTables(30, 0.5, 7);
    RemoteSource src("hospital", "patients", std::move(tables.hospital),
                     /*seed=*/1234);
    core::ClinicalScenario::ApplyPatientPolicies(&src);
    auto q = PiqlQuery::Parse(
        R"(<query requester="analyst" purpose="research" maxLoss="0.95">
             <select>zip</select><select>diagnosis</select></query>)");
    auto result = src.ExecuteFragment(*q);
    EXPECT_TRUE(result.ok());
    return relational::EncodeTable(result->table);
  };
  EXPECT_EQ(build_and_query(), build_and_query());
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(RandomSampleQueryModeTest, SampledAggregatesAreStableAndApproximate) {
  Rng data_rng(9);
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"rate", ColumnType::kDouble}});
  double truth = 0.0;
  const size_t n = 500;
  for (size_t i = 0; i < n; ++i) {
    const double v = data_rng.NextUniform(0, 100);
    truth += v;
    (void)t.AppendRow(Row{Value::Str("P" + std::to_string(i)), Value::Real(v)});
  }
  truth /= static_cast<double>(n);
  RemoteSource src("hmo", "stats", std::move(t), /*seed=*/77);
  PreservationModule::Config config;
  config.use_random_sample_queries = true;
  config.sampling_rate = 0.8;
  src.set_preservation_config(config);
  policy::PrivacyPolicy policy("hmo", {});
  policy::PolicyRule rule;
  rule.id = "agg";
  rule.item = {"*", "rate"};
  rule.purposes = {"*"};
  rule.recipients = {"*"};
  rule.form = policy::DisclosureForm::kAggregate;
  policy.AddRule(rule);
  (void)src.mutable_policies()->AddPolicy(std::move(policy));
  (void)src.mutable_rbac()->AddRole("r");
  (void)src.mutable_rbac()->AssignRole("u", "r");
  (void)src.mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");

  auto q = PiqlQuery::Parse(
      R"(<query requester="u" purpose="any" maxLoss="1.0">
           <aggregate func="AVG" attribute="rate"/></query>)");
  ASSERT_TRUE(q.ok());
  auto first = src.ExecuteFragment(*q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->table.num_rows(), 1u);
  const double answer1 = first->table.row(0)[0].AsDouble();
  // Close to the truth (unbiased sample of 80%, plus budget-1.0 rounding is
  // fine-grained)...
  EXPECT_NEAR(answer1, truth, 0.1 * truth);
  // ...and re-asking the identical query yields the identical answer: the
  // averaging attack gains nothing.
  auto second = src.ExecuteFragment(*q);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->table.row(0)[0].AsDouble(), answer1);
}

}  // namespace
}  // namespace source
}  // namespace piye
