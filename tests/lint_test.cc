// Fixture-driven self-tests for piye_lint (tools/lint). Every rule must
// fire exactly once on its bad fixture, stay quiet on its good fixture, and
// honor its suppression fixture. Fixture content is linted under *virtual*
// src/ paths so the path-scoped rules behave exactly as they do on the real
// tree.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace piye {
namespace lint {
namespace {

#ifndef PIYE_LINT_FIXTURE_DIR
#error "PIYE_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif

std::string ReadFixture(const std::string& kind, const std::string& name) {
  const std::string path = std::string(PIYE_LINT_FIXTURE_DIR) + "/" + kind + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> LintOne(const std::string& virtual_path, const std::string& content) {
  return RunLint({FileContent{virtual_path, content}});
}

struct RuleFixture {
  std::string rule;
  std::string file;          ///< fixture file name (same in bad/good/suppressed)
  std::string virtual_path;  ///< path the content is linted under
};

const std::vector<RuleFixture>& Fixtures() {
  static const std::vector<RuleFixture> kFixtures = {
      {"raw-sync", "raw-sync.cc", "src/mediator/fixture.cc"},
      {"raw-thread", "raw-thread.cc", "src/mediator/fixture.cc"},
      {"wall-clock", "wall-clock.cc", "src/mediator/fixture.cc"},
      {"privacy-retry", "privacy-retry.cc", "src/mediator/fixture.cc"},
      {"serialization-boundary", "serialization-boundary.cc",
       "src/mediator/fixture.cc"},
      {"status-discard", "status-discard.cc", "src/mediator/fixture.cc"},
      {"header-hygiene", "header-hygiene.h", "src/mediator/fixture.h"},
      {"analysis-escape", "analysis-escape.cc", "src/mediator/fixture.cc"},
      {"row-loop", "row-loop.cc", "src/perturb/fixture.cc"},
      {"manual-snapshot", "manual-snapshot.cc", "src/mediator/fixture.cc"},
      {"piql-text", "piql-text.cc", "src/mediator/fixture.cc"},
  };
  return kFixtures;
}

TEST(LintRules, CatalogHasAtLeastSixRules) {
  EXPECT_GE(RuleNames().size(), 6u);
  for (const auto& name : RuleNames()) {
    EXPECT_FALSE(RuleDescription(name).empty()) << name;
  }
  // Every rule in the catalog has a fixture triple exercising it.
  ASSERT_EQ(Fixtures().size(), RuleNames().size());
}

TEST(LintRules, EachBadFixtureFiresItsRuleExactlyOnce) {
  for (const auto& fixture : Fixtures()) {
    const auto findings =
        LintOne(fixture.virtual_path, ReadFixture("bad", fixture.file));
    ASSERT_EQ(findings.size(), 1u) << fixture.rule;
    EXPECT_EQ(findings[0].rule, fixture.rule);
    EXPECT_EQ(findings[0].file, fixture.virtual_path);
    EXPECT_GT(findings[0].line, 0u);
    EXPECT_FALSE(findings[0].message.empty());
  }
}

TEST(LintRules, GoodFixturesAreClean) {
  for (const auto& fixture : Fixtures()) {
    const auto findings =
        LintOne(fixture.virtual_path, ReadFixture("good", fixture.file));
    EXPECT_TRUE(findings.empty())
        << fixture.rule << ": " << (findings.empty() ? "" : findings[0].message);
  }
}

TEST(LintRules, SuppressionsSilenceEveryRule) {
  for (const auto& fixture : Fixtures()) {
    const auto findings =
        LintOne(fixture.virtual_path, ReadFixture("suppressed", fixture.file));
    EXPECT_TRUE(findings.empty())
        << fixture.rule << ": " << (findings.empty() ? "" : findings[0].message);
  }
}

TEST(LintRules, SuppressionNamesOnlyItsOwnRule) {
  // An allow() for a different rule must not silence this one.
  const auto findings = LintOne(
      "src/mediator/fixture.cc",
      "std::mutex mu;  // piye-lint: allow(raw-thread) wrong rule named\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-sync");
}

TEST(LintScanner, TokensInCommentsAndStringsDoNotFire) {
  const auto findings = LintOne("src/mediator/fixture.cc",
                                "// std::mutex is banned here\n"
                                "/* so is std::condition_variable */\n"
                                "const char* kDoc = \"std::thread spawn\";\n"
                                "const char* kRaw = R\"(std::shared_mutex)\";\n");
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings[0].rule);
}

TEST(LintScanner, PartialIdentifiersDoNotFire) {
  const auto findings = LintOne("src/mediator/fixture.cc",
                                "int system_clocks = 0;\n"
                                "int my_system_clock = 0;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintPaths, SyncHeaderIsExemptFromItsOwnBans) {
  // common/sync.h itself may use the raw primitives and the escape hatch.
  const auto findings = LintOne("src/common/sync.h",
                                "#include <mutex>\n"
                                "std::mutex mu;\n"
                                "#define NO_THREAD_SAFETY_ANALYSIS x\n");
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings[0].rule);
}

TEST(LintPaths, BlessedSeamsMaySerialize) {
  const std::string content = ReadFixture("bad", "serialization-boundary.cc");
  EXPECT_TRUE(LintOne("src/relational/table_codec.cc", content).empty());
  EXPECT_TRUE(LintOne("src/net/wire.cc", content).empty());
  EXPECT_TRUE(LintOne("src/mediator/persistence.cc", content).empty());
  // Anywhere else it fires — including former seams that no longer
  // serialize anything.
  EXPECT_EQ(LintOne("src/inference/auditor.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/mediator/result_integrator.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/policy/policy_io.cc", content).size(), 1u);
}

TEST(LintPaths, OnlyTheServerDecodesPiqlKeys) {
  const std::string content =
      "auto q = source::PiqlQuery::Decode(req.fragment);\n";
  EXPECT_TRUE(LintOne("src/net/server.cc", content).empty());
  EXPECT_TRUE(LintOne("src/source/piql.cc", content).empty());
  // The record seams are no PIQL seams, and vice versa.
  const auto elsewhere = LintOne("src/net/wire.cc", content);
  ASSERT_EQ(elsewhere.size(), 1u);
  EXPECT_EQ(elsewhere[0].rule, "serialization-boundary");
  EXPECT_EQ(LintOne("src/mediator/engine.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/net/server.cc", ReadFixture("bad", "serialization-boundary.cc"))
                .size(),
            1u);
}

TEST(LintPaths, PiqlTextStaysAtTheRequesterEdge) {
  const std::string content = ReadFixture("bad", "piql-text.cc");
  EXPECT_TRUE(LintOne("src/source/piql.cc", content).empty());
  EXPECT_TRUE(LintOne("src/core/private_iye.cc", content).empty());
  EXPECT_TRUE(LintOne("src/xml/parser.cc", content).empty());
  // Both sides of the wire and the source pipeline are on the query path.
  EXPECT_EQ(LintOne("src/net/net_source.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/source/remote_source.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/mediator/engine.cc",
                    "auto q = source::PiqlQuery::Parse(text);\n")
                .size(),
            1u);
  // A declaration or definition is no call; the test tree is not scanned.
  EXPECT_TRUE(LintOne("src/policy/policy.h",
                      "std::unique_ptr<xml::XmlNode> ToXml() const;\n")
                  .empty());
  EXPECT_TRUE(LintOne("tests/fixture.cc", content).empty());
}

TEST(LintPaths, ExecutorMayOwnThreads) {
  const std::string content = "std::thread worker;\n";
  EXPECT_TRUE(LintOne("src/common/executor.h", content).empty());
  EXPECT_TRUE(LintOne("src/common/executor.cc", content).empty());
  EXPECT_EQ(LintOne("src/mediator/engine.cc", content).size(), 1u);
}

TEST(LintPaths, OnlyTheRowShimsMayLoopOverRows) {
  const std::string content = ReadFixture("bad", "row-loop.cc");
  EXPECT_TRUE(LintOne("src/relational/table.cc", content).empty());
  // Only the row shims are exempt: a row loop anywhere else in the
  // product's relational module fires.
  EXPECT_EQ(LintOne("src/relational/reference.cc", content).size(), 1u);
  EXPECT_EQ(LintOne("src/relational/executor.cc", content).size(), 1u);
}

TEST(LintPaths, RowLoopCoversAllOfSrc) {
  // Not only the columnar kernels: a row loop in any product module fires.
  const std::string content = ReadFixture("bad", "row-loop.cc");
  EXPECT_EQ(LintOne("src/core/fixture.cc", content).size(), 1u);
  // A Table::row member call fires on its own, with no loop around it.
  EXPECT_EQ(LintOne("src/statdb/fixture.cc", "Row r = table.row(0);\n").size(), 1u);
  EXPECT_EQ(LintOne("src/statdb/fixture.cc", "Row r = table->row(0);\n").size(), 1u);
  EXPECT_TRUE(LintOne("src/statdb/fixture.cc", "size_t n = table.num_rows();\n").empty());
  // The test and bench trees keep their row-engine oracles.
  EXPECT_TRUE(LintOne("tests/reference/fixture.cc", content).empty());
}

TEST(LintPaths, SrcScopedRulesCoverLab) {
  // lab/ mirrors src/'s layout and keeps its rules.
  EXPECT_EQ(LintOne("lab/anonymity/fixture.cc", ReadFixture("bad", "row-loop.cc")).size(),
            1u);
  EXPECT_EQ(LintOne("/repo/lab/core/fixture.cc", ReadFixture("bad", "piql-text.cc")).size(),
            1u);
}

// --- Product closure (the on-disk fixture trees run through piye_lint as
// ctests; these pin the resolution rules) ---

std::vector<FileContent> ProductTree() {
  return {
      {"src/mediator/engine.h", "#include \"source/remote_source.h\"\n"},
      {"src/mediator/engine.cc", "#include \"mediator/engine.h\"\n"},
      {"src/source/remote_source.h", "#include <string>\n"},
      {"src/source/remote_source.cc", "#include \"source/remote_source.h\"\n"},
      {"tools/source_server.cc", "#include \"source/remote_source.h\"\n"},
      {"lab/anonymity/kanonymity.h", "#include \"common/status.h\"\n"},
  };
}

TEST(ProductClosure, HeadersBringTheirImplementations) {
  EXPECT_TRUE(CheckProductClosure(ProductTree()).empty());
}

TEST(ProductClosure, CommentedOrLabOnlyIncludesDoNotReach) {
  auto files = ProductTree();
  files.push_back({"src/common/status.h", ""});  // only lab/ includes it
  files.push_back({"src/common/macros.h", ""});
  files[1].content += "// #include \"common/macros.h\"\n";
  const auto findings = CheckProductClosure(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/common/macros.h");
  EXPECT_EQ(findings[1].file, "src/common/status.h");
  EXPECT_EQ(findings[0].rule, "product-closure");
}

TEST(ProductClosure, ToolsMayNotIncludeLab) {
  auto files = ProductTree();
  files[4].content += "#include \"anonymity/kanonymity.h\"\n";
  const auto findings = CheckProductClosure(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tools/source_server.cc");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].rule, "lab-include");
}

TEST(ProductClosure, NoRootIsAFinding) {
  const auto findings = CheckProductClosure({{"src/common/status.h", ""}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "product-closure");
}

TEST(LintStatusDiscard, VariableDiscardIsExempt) {
  const auto findings = LintOne("src/mediator/fixture.cc",
                                "bool inserted = true;\n"
                                "(void)inserted;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintStatusDiscard, JustifiedBlockCoversContiguousDiscards) {
  const std::string content =
      "// Best-effort teardown: the first error was already reported.\n"
      "(void)CloseA();\n"
      "(void)CloseB();\n"
      "\n"
      "int x = 0;\n"
      "(void)CloseC();\n";
  const auto findings = LintOne("src/mediator/fixture.cc", content);
  // The code line between the block and CloseC breaks the chain.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "status-discard");
  EXPECT_EQ(findings[0].line, 6u);
}

TEST(LintReport, FindingsAreOrderedAndJsonEscaped) {
  std::vector<FileContent> files = {
      {"src/b.cc", "std::mutex b;\n"},
      {"src/a.cc", "int x;\nstd::mutex a;\n"},
  };
  const auto findings = RunLint(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/a.cc");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].file, "src/b.cc");

  const std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"raw-sync\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);

  EXPECT_EQ(FindingsToJson({}), "{\"count\": 0, \"findings\": []}");
}

}  // namespace
}  // namespace lint
}  // namespace piye
