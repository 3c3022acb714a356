#include <gtest/gtest.h>

#include "policy/policy.h"
#include "policy/policy_store.h"
#include "policy/preference.h"
#include "policy/privacy_view.h"
#include "policy/purpose.h"
#include "relational/sql.h"
#include "xml/parser.h"

namespace piye {
namespace policy {
namespace {

// --- Purpose lattice ---

TEST(PurposeLatticeTest, DescendantSatisfiesAncestor) {
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_TRUE(lattice.Satisfies("treatment", "healthcare"));
  EXPECT_TRUE(lattice.Satisfies("outbreak-control", "healthcare"));
  EXPECT_TRUE(lattice.Satisfies("treatment", "any"));
  EXPECT_TRUE(lattice.Satisfies("treatment", "treatment"));
}

TEST(PurposeLatticeTest, AncestorDoesNotSatisfyDescendant) {
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(lattice.Satisfies("healthcare", "treatment"));
  EXPECT_FALSE(lattice.Satisfies("any", "healthcare"));
}

TEST(PurposeLatticeTest, SiblingsDoNotSatisfy) {
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(lattice.Satisfies("marketing", "healthcare"));
  EXPECT_FALSE(lattice.Satisfies("research", "marketing"));
}

TEST(PurposeLatticeTest, WildcardAlwaysSatisfied) {
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_TRUE(lattice.Satisfies("anything-even-unknown", "*"));
}

TEST(PurposeLatticeTest, UnknownPurposeSatisfiesNothingElse) {
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(lattice.Satisfies("unknown", "healthcare"));
}

TEST(PurposeLatticeTest, RejectsDuplicateWithDifferentParent) {
  PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(lattice.AddPurpose("research", "commercial").ok());
  EXPECT_TRUE(lattice.AddPurpose("research", "healthcare").ok());  // idempotent
}

TEST(PurposeLatticeTest, Ancestors) {
  const PurposeLattice lattice = PurposeLattice::Default();
  const auto chain = lattice.Ancestors("outbreak-control");
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front(), "outbreak-control");
  EXPECT_EQ(chain.back(), "any");
}

// --- Policy evaluation ---

PrivacyPolicy HmoPolicy() {
  PrivacyPolicy p("HMO1", {});
  PolicyRule rate;
  rate.id = "r-agg";
  rate.item = {"compliance", "rate"};
  rate.purposes = {"healthcare"};
  rate.recipients = {"*"};
  rate.form = DisclosureForm::kAggregate;
  rate.max_privacy_loss = 0.3;
  p.AddRule(rate);
  PolicyRule test;
  test.id = "t-exact";
  test.item = {"compliance", "test"};
  test.purposes = {"*"};
  test.recipients = {"*"};
  test.form = DisclosureForm::kExact;
  p.AddRule(test);
  PolicyRule deny_marketing;
  deny_marketing.id = "no-marketing";
  deny_marketing.deny = true;
  deny_marketing.item = {"*", "*"};
  deny_marketing.purposes = {"marketing"};
  deny_marketing.recipients = {"*"};
  p.AddRule(deny_marketing);
  return p;
}

TEST(PolicyTest, DefaultDeny) {
  const PrivacyPolicy p = HmoPolicy();
  const PurposeLattice lattice = PurposeLattice::Default();
  const Disclosure d = p.Evaluate("compliance", "secret_col", "research", "cdc", lattice);
  EXPECT_FALSE(d.allowed());
}

TEST(PolicyTest, GrantMatchesPurposeDescendant) {
  const PrivacyPolicy p = HmoPolicy();
  const PurposeLattice lattice = PurposeLattice::Default();
  const Disclosure d = p.Evaluate("compliance", "rate", "research", "cdc", lattice);
  EXPECT_TRUE(d.allowed());
  EXPECT_EQ(d.form, DisclosureForm::kAggregate);
  EXPECT_DOUBLE_EQ(d.max_privacy_loss, 0.3);
}

TEST(PolicyTest, WrongPurposeDenied) {
  const PrivacyPolicy p = HmoPolicy();
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(p.Evaluate("compliance", "rate", "commercial", "cdc", lattice).allowed());
}

TEST(PolicyTest, DenyOverridesGrant) {
  const PrivacyPolicy p = HmoPolicy();
  const PurposeLattice lattice = PurposeLattice::Default();
  // `test` is granted for any purpose, but the deny rule vetoes marketing.
  EXPECT_FALSE(p.Evaluate("compliance", "test", "marketing", "x", lattice).allowed());
  EXPECT_TRUE(p.Evaluate("compliance", "test", "research", "x", lattice).allowed());
}

TEST(PolicyTest, MostPermissiveGrantWins) {
  PrivacyPolicy p("o", {});
  PolicyRule r1;
  r1.id = "a";
  r1.item = {"t", "c"};
  r1.purposes = {"*"};
  r1.recipients = {"*"};
  r1.form = DisclosureForm::kRange;
  r1.max_privacy_loss = 0.9;
  p.AddRule(r1);
  PolicyRule r2 = r1;
  r2.id = "b";
  r2.form = DisclosureForm::kExact;
  r2.max_privacy_loss = 0.4;
  p.AddRule(r2);
  const Disclosure d = p.Evaluate("t", "c", "any", "x", PurposeLattice::Default());
  EXPECT_EQ(d.form, DisclosureForm::kExact);
  // Budget combines conservatively (min).
  EXPECT_DOUBLE_EQ(d.max_privacy_loss, 0.4);
  EXPECT_EQ(d.rule_ids.size(), 2u);
}

TEST(PolicyTest, RecipientFilter) {
  PrivacyPolicy p("o", {});
  PolicyRule r;
  r.id = "only-cdc";
  r.item = {"t", "c"};
  r.purposes = {"*"};
  r.recipients = {"cdc"};
  r.form = DisclosureForm::kExact;
  p.AddRule(r);
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_TRUE(p.Evaluate("t", "c", "any", "cdc", lattice).allowed());
  EXPECT_FALSE(p.Evaluate("t", "c", "any", "who", lattice).allowed());
}

TEST(PolicyTest, XmlRoundTrip) {
  const PrivacyPolicy p = HmoPolicy();
  const std::string xml_text = xml::Serialize(*p.ToXml());
  auto back = PrivacyPolicy::Parse(xml_text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->owner(), "HMO1");
  ASSERT_EQ(back->rules().size(), 3u);
  EXPECT_EQ(back->rules()[0].form, DisclosureForm::kAggregate);
  EXPECT_TRUE(back->rules()[2].deny);
}

TEST(PolicyTest, ParseConditionExpression) {
  auto p = PrivacyPolicy::Parse(R"(
    <policy owner="o">
      <rule id="r"><item table="t" column="c"/>
        <form>exact</form>
        <condition>year = 2001</condition>
      </rule>
    </policy>)");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_NE(p->rules()[0].condition, nullptr);
  EXPECT_EQ(p->rules()[0].condition->ToString(), "(year = 2001)");
}

TEST(PolicyTest, ParseErrors) {
  EXPECT_FALSE(PrivacyPolicy::Parse("<policy><rule/></policy>").ok());
  EXPECT_FALSE(PrivacyPolicy::Parse("<notpolicy/>").ok());
  EXPECT_FALSE(PrivacyPolicy::Parse(
                   R"(<policy owner="o"><rule><item table="t" column="c"/></rule></policy>)")
                   .ok());  // grant missing form
}

// --- Preferences ---

TEST(PreferenceTest, EvaluateAndMeet) {
  UserPreference pref("patient-1");
  PreferenceRule rule;
  rule.data_category = "dob";
  rule.acceptable_purposes = {"research"};
  rule.max_form = DisclosureForm::kRange;
  rule.max_privacy_loss = 0.2;
  pref.AddRule(rule);
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_EQ(pref.Evaluate("dob", "research", lattice).form, DisclosureForm::kRange);
  EXPECT_FALSE(pref.Evaluate("dob", "marketing", lattice).allowed());
  EXPECT_FALSE(pref.Evaluate("name", "research", lattice).allowed());

  Disclosure policy_verdict;
  policy_verdict.form = DisclosureForm::kExact;
  policy_verdict.max_privacy_loss = 0.9;
  const Disclosure met = Meet(policy_verdict, pref.Evaluate("dob", "research", lattice));
  EXPECT_EQ(met.form, DisclosureForm::kRange);
  EXPECT_DOUBLE_EQ(met.max_privacy_loss, 0.2);
}

TEST(PreferenceTest, AcceptsRejectsOverPermissiveRule) {
  UserPreference pref("p");
  PreferenceRule rule;
  rule.data_category = "dob";
  rule.acceptable_purposes = {"healthcare"};
  rule.max_form = DisclosureForm::kRange;
  rule.max_privacy_loss = 0.5;
  pref.AddRule(rule);

  PolicyRule grant;
  grant.item = {"t", "dob"};
  grant.purposes = {"healthcare"};
  grant.recipients = {"*"};
  grant.form = DisclosureForm::kExact;  // more revealing than the subject allows
  grant.max_privacy_loss = 0.4;
  const PurposeLattice lattice = PurposeLattice::Default();
  EXPECT_FALSE(pref.Accepts(grant, lattice));
  grant.form = DisclosureForm::kRange;
  EXPECT_TRUE(pref.Accepts(grant, lattice));
}

TEST(PreferenceTest, XmlRoundTrip) {
  UserPreference pref("patient-9");
  PreferenceRule rule;
  rule.data_category = "diagnosis";
  rule.acceptable_purposes = {"research", "treatment"};
  rule.max_form = DisclosureForm::kGeneralized;
  rule.max_privacy_loss = 0.6;
  pref.AddRule(rule);
  auto back = UserPreference::Parse(xml::Serialize(*pref.ToXml()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->subject_id(), "patient-9");
  ASSERT_EQ(back->rules().size(), 1u);
  EXPECT_EQ(back->rules()[0].acceptable_purposes.size(), 2u);
  EXPECT_EQ(back->rules()[0].max_form, DisclosureForm::kGeneralized);
}

// --- Privacy views ---

TEST(PrivacyViewTest, FormForAndApply) {
  relational::Table base(
      relational::Schema{relational::Column{"name", relational::ColumnType::kString},
                         relational::Column{"rate", relational::ColumnType::kDouble},
                         relational::Column{"year", relational::ColumnType::kInt64}});
  ASSERT_TRUE(base.AppendRow({relational::Value::Str("a"), relational::Value::Real(0.8),
                              relational::Value::Int(2001)})
                  .ok());
  ASSERT_TRUE(base.AppendRow({relational::Value::Str("b"), relational::Value::Real(0.6),
                              relational::Value::Int(1999)})
                  .ok());

  PrivacyView view("pub", "compliance");
  view.AddVisibleColumn("year");
  view.AddSensitiveColumn({"rate", DisclosureForm::kAggregate});
  auto filter = relational::ParseExpression("year = 2001");
  ASSERT_TRUE(filter.ok());
  view.set_row_filter(*filter);

  EXPECT_EQ(view.FormFor("year"), DisclosureForm::kExact);
  EXPECT_EQ(view.FormFor("rate"), DisclosureForm::kAggregate);
  EXPECT_EQ(view.FormFor("name"), DisclosureForm::kDenied);

  auto applied = view.Apply(base);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->num_rows(), 1u);            // row filter
  EXPECT_EQ(applied->schema().num_columns(), 2u);  // name dropped
  EXPECT_FALSE(applied->schema().Contains("name"));
}

TEST(PrivacyViewTest, XmlRoundTrip) {
  PrivacyView view("pub", "compliance");
  view.AddVisibleColumn("year");
  view.AddSensitiveColumn({"rate", DisclosureForm::kRange});
  auto back = PrivacyView::Parse(xml::Serialize(*view.ToXml()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name(), "pub");
  EXPECT_EQ(back->FormFor("rate"), DisclosureForm::kRange);
}

// --- Policy store ---

TEST(PolicyStoreTest, EffectiveDisclosureMeetsPreferences) {
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(HmoPolicy()).ok());

  // Without preferences: test is exact.
  Disclosure d = store.EffectiveDisclosure("HMO1", "compliance", "test", "research", "x");
  EXPECT_EQ(d.form, DisclosureForm::kExact);

  // A subject preference caps `test` at range.
  UserPreference pref("subject");
  PreferenceRule rule;
  rule.data_category = "test";
  rule.acceptable_purposes = {"*"};
  rule.max_form = DisclosureForm::kRange;
  rule.max_privacy_loss = 0.1;
  pref.AddRule(rule);
  ASSERT_TRUE(store.AddPreference(std::move(pref)).ok());
  d = store.EffectiveDisclosure("HMO1", "compliance", "test", "research", "x");
  EXPECT_EQ(d.form, DisclosureForm::kRange);
}

TEST(PolicyStoreTest, UnknownOwnerDefaultsToDeny) {
  PolicyStore store;
  EXPECT_FALSE(
      store.EffectiveDisclosure("nobody", "t", "c", "research", "x").allowed());
}

TEST(PolicyStoreTest, DuplicateRegistrationFails) {
  PolicyStore store;
  ASSERT_TRUE(store.AddPolicy(HmoPolicy()).ok());
  EXPECT_FALSE(store.AddPolicy(HmoPolicy()).ok());
}

}  // namespace
}  // namespace policy
}  // namespace piye
