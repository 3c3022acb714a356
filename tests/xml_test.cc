#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "xml/loose_name.h"
#include "xml/node.h"
#include "xml/parser.h"

namespace piye {
namespace xml {
namespace {

TEST(XmlNodeTest, BuildAndAccess) {
  auto root = XmlNode::Element("patients");
  XmlNode* p = root->AddElement("patient");
  p->SetAttr("id", "7");
  p->AddElementWithText("dob", "1970-01-02");
  EXPECT_EQ(root->ChildElements().size(), 1u);
  EXPECT_EQ(p->ChildText("dob"), "1970-01-02");
  EXPECT_EQ(*p->GetAttr("id"), "7");
  EXPECT_FALSE(p->HasAttr("nope"));
}

TEST(XmlNodeTest, SetAttrOverwrites) {
  auto n = XmlNode::Element("a");
  n->SetAttr("k", "1");
  n->SetAttr("k", "2");
  EXPECT_EQ(*n->GetAttr("k"), "2");
  EXPECT_EQ(n->attrs().size(), 1u);
}

TEST(XmlParserTest, ParsesNestedDocument) {
  const char* text = R"(<?xml version="1.0"?>
    <!-- comment -->
    <hospital name="general">
      <patient id="1"><dob>1970-01-02</dob></patient>
      <patient id="2"><dob>1980-03-04</dob></patient>
    </hospital>)";
  auto doc = Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root().name(), "hospital");
  EXPECT_EQ(*doc->root().GetAttr("name"), "general");
  EXPECT_EQ(doc->root().Children("patient").size(), 2u);
}

TEST(XmlParserTest, SelfClosingAndEntities) {
  auto doc = Parse(R"(<a x="1 &amp; 2"><b/><c>&lt;tag&gt;</c></a>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc->root().GetAttr("x"), "1 & 2");
  EXPECT_EQ(doc->root().ChildText("c"), "<tag>");
}

TEST(XmlParserTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("<a><b></a>").ok());
  EXPECT_FALSE(Parse("<a>").ok());
  EXPECT_FALSE(Parse("<a></a><b></b>").ok());
  EXPECT_FALSE(Parse("no tags").ok());
  EXPECT_FALSE(Parse("<a attr=oops></a>").ok());
}

TEST(XmlParserTest, RoundTrip) {
  const char* text = R"(<r a="v&quot;q"><c>text &amp; more</c><d/></r>)";
  auto doc = Parse(text);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = Serialize(doc->root(), 2);
  auto doc2 = Parse(serialized);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_EQ(doc2->root().ChildText("c"), "text & more");
  EXPECT_EQ(*doc2->root().GetAttr("a"), "v\"q");
}

TEST(XmlParserTest, CompactSerialization) {
  auto doc = Parse("<a><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Serialize(doc->root(), -1), "<a><b>x</b></a>");
}

// --- Loose matching ---

TEST(LooseNameMatcherTest, ExactAndCaseInsensitive) {
  LooseNameMatcher m;
  EXPECT_DOUBLE_EQ(m.NameSimilarity("dob", "DOB"), 1.0);
}

TEST(LooseNameMatcherTest, AcronymMatchesExpansion) {
  LooseNameMatcher m;
  EXPECT_GE(m.NameSimilarity("dob", "dateOfBirth"), 0.9);
  EXPECT_GE(m.NameSimilarity("dateOfBirth", "dob"), 0.9);
}

TEST(LooseNameMatcherTest, SynonymsScoreHigh) {
  LooseNameMatcher m;
  m.AddSynonyms({"sex", "gender"});
  EXPECT_DOUBLE_EQ(m.NameSimilarity("sex", "gender"), 1.0);
  EXPECT_DOUBLE_EQ(m.NameSimilarity("patientSex", "patientGender"), 1.0);
}

TEST(LooseNameMatcherTest, UnrelatedScoreLow) {
  LooseNameMatcher m;
  EXPECT_LT(m.NameSimilarity("diagnosis", "zip"), 0.5);
}

TEST(LooseNameMatcherTest, SynonymGroupsMerge) {
  LooseNameMatcher m;
  m.AddSynonyms({"dob", "birthdate"});
  m.AddSynonyms({"birthdate", "birthday"});
  EXPECT_DOUBLE_EQ(m.NameSimilarity("dob", "birthday"), 1.0);
}

}  // namespace
}  // namespace xml
}  // namespace piye

namespace piye {
namespace xml {
namespace {

// ---------------------------------------------------------------------------
// Parser resource limits: fragment results cross a trust boundary (they come
// from autonomous remote sources), so the parser must reject oversized and
// pathologically nested input instead of exhausting memory or the stack.
// ---------------------------------------------------------------------------

std::string DeeplyNested(size_t depth) {
  std::string s;
  for (size_t i = 0; i < depth; ++i) s += "<a>";
  s += "x";
  for (size_t i = 0; i < depth; ++i) s += "</a>";
  return s;
}

TEST(ParserLimitsTest, DepthAtLimitParses) {
  ParseLimits limits;
  limits.max_depth = 16;
  auto doc = Parse(DeeplyNested(16), limits);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(ParserLimitsTest, DepthBeyondLimitRejected) {
  ParseLimits limits;
  limits.max_depth = 16;
  auto doc = Parse(DeeplyNested(17), limits);
  ASSERT_FALSE(doc.ok());
  EXPECT_TRUE(doc.status().IsParseError()) << doc.status().ToString();
  EXPECT_NE(doc.status().message().find("depth limit"), std::string::npos);
}

TEST(ParserLimitsTest, DefaultDepthLimitStopsAdversarialNesting) {
  // 100k levels would overflow the stack without the guard; the default
  // limit turns it into a clean parse error.
  auto doc = Parse(DeeplyNested(100'000));
  ASSERT_FALSE(doc.ok());
  EXPECT_TRUE(doc.status().IsParseError());
}

TEST(ParserLimitsTest, OversizedInputRejectedUpFront) {
  ParseLimits limits;
  limits.max_input_bytes = 64;
  const std::string big = "<a>" + std::string(128, 'x') + "</a>";
  auto doc = Parse(big, limits);
  ASSERT_FALSE(doc.ok());
  EXPECT_TRUE(doc.status().IsInvalidArgument()) << doc.status().ToString();
}

TEST(ParserLimitsTest, SizeLimitZeroMeansUnlimited) {
  ParseLimits limits;
  limits.max_input_bytes = 0;
  const std::string big = "<a>" + std::string(1 << 20, 'x') + "</a>";
  ASSERT_TRUE(Parse(big, limits).ok());
}

// Seeded malformed-input fuzz loop: mutate well-formed documents with random
// byte edits and feed them to the parser. The parser may accept or reject
// each mutant, but it must never crash, hang, or blow the limits — and it
// must stay deterministic (same seed ⇒ same verdicts).
TEST(ParserFuzzTest, SeededMutationsNeverCrashAndAreDeterministic) {
  const std::string seeds[] = {
      "<patients><patient id=\"7\"><dob>1970-01-02</dob>"
      "<name>A &amp; B</name></patient></patients>",
      "<r a='1' b=\"2\"><!-- c --><x/><y>t&lt;u</y></r>",
      "<?xml version=\"1.0\"?><a><b><c><d>deep</d></c></b></a>",
  };
  ParseLimits limits;
  limits.max_input_bytes = 4096;
  limits.max_depth = 32;
  constexpr uint64_t kFuzzSeed = 0xF00DFACE;
  constexpr int kRounds = 2000;

  auto run = [&](std::vector<bool>* verdicts) {
    Rng rng(kFuzzSeed);
    for (int round = 0; round < kRounds; ++round) {
      std::string input = seeds[rng.NextBounded(3)];
      const size_t edits = 1 + rng.NextBounded(8);
      for (size_t e = 0; e < edits; ++e) {
        const size_t at = rng.NextBounded(input.size());
        switch (rng.NextBounded(3)) {
          case 0:  // flip to a structural character
            input[at] = "<>&\"'/="[rng.NextBounded(7)];
            break;
          case 1:  // random byte
            input[at] = static_cast<char>(rng.NextBounded(256));
            break;
          default:  // truncate
            input.resize(at + 1);
            break;
        }
      }
      auto doc = Parse(input, limits);
      verdicts->push_back(doc.ok());
      if (!doc.ok()) {
        // Rejections must carry a positioned message, not an empty status.
        EXPECT_FALSE(doc.status().message().empty());
      }
    }
  };
  std::vector<bool> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);  // same seed, same verdicts
}

}  // namespace
}  // namespace xml
}  // namespace piye
