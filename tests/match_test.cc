#include <gtest/gtest.h>

#include <set>

#include "match/mediated_schema.h"
#include "match/schema_matcher.h"
#include "source/remote_source.h"

namespace piye {
namespace match {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

Table HospitalTable() {
  Table t(Schema{Column{"patient_id", ColumnType::kString},
                 Column{"dob", ColumnType::kString},
                 Column{"zip", ColumnType::kInt64},
                 Column{"diagnosis", ColumnType::kString}});
  (void)t.AppendRow(Row{Value::Str("P1"), Value::Str("1970-01-02"), Value::Int(13053),
                        Value::Str("diabetes")});
  (void)t.AppendRow(Row{Value::Str("P2"), Value::Str("1982-03-04"), Value::Int(14850),
                        Value::Str("asthma")});
  (void)t.AppendRow(Row{Value::Str("P3"), Value::Str("1955-05-06"), Value::Int(13068),
                        Value::Str("diabetes")});
  return t;
}

Table PharmacyTable() {
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"dateOfBirth", ColumnType::kString},
                 Column{"postcode", ColumnType::kInt64},
                 Column{"drug", ColumnType::kString}});
  (void)t.AppendRow(Row{Value::Str("P1"), Value::Str("1970-01-02"), Value::Int(13053),
                        Value::Str("metformin")});
  (void)t.AppendRow(Row{Value::Str("P4"), Value::Str("1991-07-08"), Value::Int(14850),
                        Value::Str("albuterol")});
  return t;
}

SchemaMatcher MakeMatcher(double threshold = 0.6) {
  SchemaMatcher::Options options;
  options.threshold = threshold;
  return SchemaMatcher(options, source::DefaultClinicalNameMatcher());
}

TEST(ColumnSketchTest, FeaturesReflectContent) {
  const Table t = HospitalTable();
  auto id_sketch = ColumnSketch::Build({"h", "t", "patient_id"}, t, "key", true);
  auto zip_sketch = ColumnSketch::Build({"h", "t", "zip"}, t, "key", true);
  ASSERT_TRUE(id_sketch.ok());
  ASSERT_TRUE(zip_sketch.ok());
  EXPECT_GT(id_sketch->alpha_ratio, 0.0);
  EXPECT_GT(zip_sketch->digit_ratio, 0.9);
  EXPECT_DOUBLE_EQ(id_sketch->distinct_ratio, 1.0);
  EXPECT_TRUE(id_sketch->value_filter.has_value());
}

TEST(ColumnSketchTest, HiddenNameIsHashed) {
  const Table t = HospitalTable();
  auto sketch = ColumnSketch::Build({"h", "t", "diagnosis"}, t, "key", false);
  ASSERT_TRUE(sketch.ok());
  EXPECT_FALSE(sketch->name_public);
  EXPECT_NE(sketch->ref.column, "diagnosis");
  EXPECT_EQ(sketch->ref.column.substr(0, 2), "h_");
}

/// Sketches of every column of `table` with public names and no shared key:
/// matching with full access to both tables.
std::vector<ColumnSketch> PublicSketches(const std::string& source,
                                         const std::string& table_name,
                                         const Table& table) {
  std::vector<ColumnSketch> sketches;
  for (const auto& col : table.schema().columns()) {
    auto s = ColumnSketch::Build({source, table_name, col.name}, table, "", true);
    EXPECT_TRUE(s.ok());
    sketches.push_back(*s);
  }
  return sketches;
}

TEST(SchemaMatcherTest, MatchesHeterogeneousNames) {
  const SchemaMatcher matcher = MakeMatcher();
  const auto matches =
      matcher.MatchSketches(PublicSketches("hospital", "patients", HospitalTable()),
                            PublicSketches("pharmacy", "rx", PharmacyTable()));
  // Expected correspondences: patient_id~pid, dob~dateOfBirth, zip~postcode.
  auto find = [&](const std::string& a, const std::string& b) {
    for (const auto& m : matches) {
      if (m.a.column == a && m.b.column == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(find("patient_id", "pid"));
  EXPECT_TRUE(find("dob", "dateOfBirth"));
  EXPECT_TRUE(find("zip", "postcode"));
  // diagnosis should NOT match drug strongly enough.
  EXPECT_FALSE(find("diagnosis", "drug"));
}

TEST(SchemaMatcherTest, OneToOneAssignment) {
  const SchemaMatcher matcher = MakeMatcher();
  const auto matches = matcher.MatchSketches(PublicSketches("a", "t", HospitalTable()),
                                             PublicSketches("b", "t", HospitalTable()));
  std::set<std::string> used_a, used_b;
  for (const auto& m : matches) {
    EXPECT_TRUE(used_a.insert(m.a.column).second);
    EXPECT_TRUE(used_b.insert(m.b.column).second);
  }
  EXPECT_EQ(matches.size(), 4u);  // identical tables: every column maps
}

TEST(SchemaMatcherTest, PrivacyPreservingMatchUsesInstancesWhenNamesHidden) {
  const Table hospital = HospitalTable();
  const Table pharmacy = PharmacyTable();
  // Both sides hide names; the shared-key value filters still link the id
  // columns via overlapping values.
  auto a = ColumnSketch::Build({"h", "t", "patient_id"}, hospital, "shared", false);
  auto b = ColumnSketch::Build({"p", "t", "pid"}, pharmacy, "shared", false);
  auto unrelated = ColumnSketch::Build({"p", "t", "drug"}, pharmacy, "shared", false);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(unrelated.ok());
  const SchemaMatcher matcher = MakeMatcher(0.5);
  EXPECT_GT(matcher.Score(*a, *b), matcher.Score(*a, *unrelated));
  EXPECT_GT(matcher.Score(*a, *b), 0.5);
}

// --- Mediated schema ---

std::vector<ColumnSketch> BuildAllSketches() {
  std::vector<ColumnSketch> sketches;
  const Table hospital = HospitalTable();
  const Table pharmacy = PharmacyTable();
  for (const auto& col : hospital.schema().columns()) {
    auto s = ColumnSketch::Build({"hospital", "patients", col.name}, hospital, "k", true);
    EXPECT_TRUE(s.ok());
    sketches.push_back(*s);
  }
  for (const auto& col : pharmacy.schema().columns()) {
    auto s = ColumnSketch::Build({"pharmacy", "rx", col.name}, pharmacy, "k", true);
    EXPECT_TRUE(s.ok());
    sketches.push_back(*s);
  }
  return sketches;
}

TEST(MediatedSchemaGeneratorTest, ClustersMatchedColumns) {
  const MediatedSchemaGenerator generator(MakeMatcher());
  auto schema = generator.Generate(BuildAllSketches());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  // 8 source columns collapse into 5 mediated attributes
  // (id, dob, zip merged across sources; diagnosis and drug stay separate).
  EXPECT_EQ(schema->attributes().size(), 5u);
  const MediatedAttribute* dob = nullptr;
  for (const auto& attr : schema->attributes()) {
    if (attr.mappings.size() == 2 &&
        (attr.name == "dob" || attr.name == "dateOfBirth")) {
      dob = &attr;
    }
  }
  ASSERT_NE(dob, nullptr);
  EXPECT_EQ(dob->mappings.size(), 2u);
}

TEST(MediatedSchemaTest, Lookups) {
  const MediatedSchemaGenerator generator(MakeMatcher());
  auto schema = generator.Generate(BuildAllSketches());
  ASSERT_TRUE(schema.ok());
  // Loose lookup: "birthdate" should find the dob attribute via synonyms.
  const auto* attr =
      schema->FindByName("birthdate", source::DefaultClinicalNameMatcher(), 0.7);
  ASSERT_NE(attr, nullptr);
  const auto mappings = schema->MappingsAt(attr->name, "pharmacy");
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].column, "dateOfBirth");
}

TEST(MediatedSchemaGeneratorTest, AllHiddenNamesYieldSyntheticPartialAttr) {
  const Table hospital = HospitalTable();
  std::vector<ColumnSketch> sketches;
  auto a = ColumnSketch::Build({"s1", "t", "patient_id"}, hospital, "k", false);
  auto b = ColumnSketch::Build({"s2", "t", "patient_id"}, hospital, "k", false);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  sketches.push_back(*a);
  sketches.push_back(*b);
  const MediatedSchemaGenerator generator(MakeMatcher(0.5));
  auto schema = generator.Generate(sketches);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema->attributes().size(), 1u);
  EXPECT_TRUE(schema->attributes()[0].partial);
  EXPECT_EQ(schema->attributes()[0].name.substr(0, 5), "attr_");
}

}  // namespace
}  // namespace match
}  // namespace piye
