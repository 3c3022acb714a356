#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "linkage/bloom.h"
#include "linkage/commutative_cipher.h"
#include "linkage/psi.h"
#include "linkage/record_linkage.h"

namespace piye {
namespace linkage {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- Commutative cipher ---

TEST(CommutativeCipherTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  const CommutativeCipher cipher(&rng);
  const uint64_t m = CommutativeCipher::HashToGroup("patient-17");
  EXPECT_EQ(cipher.Decrypt(cipher.Encrypt(m)), m);
}

TEST(CommutativeCipherTest, Commutativity) {
  Rng rng(2);
  const CommutativeCipher a(&rng), b(&rng);
  for (const char* s : {"alice", "bob", "carol"}) {
    const uint64_t m = CommutativeCipher::HashToGroup(s);
    EXPECT_EQ(a.Encrypt(b.Encrypt(m)), b.Encrypt(a.Encrypt(m))) << s;
  }
}

TEST(CommutativeCipherTest, LayersPeelInAnyOrder) {
  Rng rng(3);
  const CommutativeCipher a(&rng), b(&rng);
  const uint64_t m = CommutativeCipher::HashToGroup("x");
  const uint64_t double_enc = a.Encrypt(b.Encrypt(m));
  EXPECT_EQ(b.Decrypt(a.Decrypt(double_enc)), m);
  EXPECT_EQ(a.Decrypt(b.Decrypt(double_enc)), m);
}

TEST(CommutativeCipherTest, DifferentKeysDifferentCiphertexts) {
  const CommutativeCipher a(12345), b(67890);
  const uint64_t m = CommutativeCipher::HashToGroup("x");
  EXPECT_NE(a.Encrypt(m), b.Encrypt(m));
}

// --- PSI protocols ---

class PsiProtocolTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<PsiProtocol> MakeProtocol() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<PlaintextJoin>();
      case 1:
        return std::make_unique<HashPsi>("salt");
      default:
        return std::make_unique<DhPsi>(99);
    }
  }
};

TEST_P(PsiProtocolTest, ComputesExactIntersection) {
  auto protocol = MakeProtocol();
  const std::vector<std::string> a{"ann", "bob", "cal", "dee"};
  const std::vector<std::string> b{"bob", "dee", "eli"};
  auto result = protocol->Intersect(a, b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (std::vector<std::string>{"bob", "dee"}));
}

TEST_P(PsiProtocolTest, EmptyAndDisjointSets) {
  auto protocol = MakeProtocol();
  auto empty = protocol->Intersect({}, {"x"});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto disjoint = protocol->Intersect({"a", "b"}, {"c", "d"});
  ASSERT_TRUE(disjoint.ok());
  EXPECT_TRUE(disjoint->empty());
}

TEST_P(PsiProtocolTest, DuplicatesCollapse) {
  auto protocol = MakeProtocol();
  auto result = protocol->Intersect({"x", "x", "y"}, {"x", "x"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, std::vector<std::string>{"x"});
}

TEST_P(PsiProtocolTest, RandomSetsMatchPlaintextTruth) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 7);
  std::vector<std::string> a, b;
  for (int i = 0; i < 200; ++i) {
    if (rng.NextBernoulli(0.6)) a.push_back("k" + std::to_string(i));
    if (rng.NextBernoulli(0.6)) b.push_back("k" + std::to_string(i));
  }
  PlaintextJoin truth_protocol;
  auto truth = truth_protocol.Intersect(a, b);
  ASSERT_TRUE(truth.ok());
  auto protocol = MakeProtocol();
  auto result = protocol->Intersect(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *truth);
}

std::string PsiProtocolName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"Plaintext", "HashPsi", "DhPsi"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PsiProtocolTest, ::testing::Values(0, 1, 2),
                         PsiProtocolName);

TEST(DhPsiTest, CostsMoreCryptoThanHashPsi) {
  const std::vector<std::string> a{"a", "b", "c", "d"};
  const std::vector<std::string> b{"c", "d", "e"};
  DhPsi dh(1);
  HashPsi hash("s");
  ASSERT_TRUE(dh.Intersect(a, b).ok());
  ASSERT_TRUE(hash.Intersect(a, b).ok());
  EXPECT_GT(dh.stats().crypto_operations, hash.stats().crypto_operations);
  EXPECT_GT(dh.stats().messages_exchanged, hash.stats().messages_exchanged);
}

// --- Bloom filters ---

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1024, 4);
  for (int i = 0; i < 100; ++i) filter.Insert("item" + std::to_string(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(filter.MaybeContains("item" + std::to_string(i)));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRateWhenSized) {
  BloomFilter filter(4096, 4);
  for (int i = 0; i < 100; ++i) filter.Insert("in" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 1000; ++i) fp += filter.MaybeContains("out" + std::to_string(i));
  EXPECT_LT(fp, 20);
}

TEST(BloomFilterTest, DiceSimilarityBounds) {
  BloomFilter a(512, 4), b(512, 4);
  a.Insert("x");
  b.Insert("x");
  EXPECT_DOUBLE_EQ(BloomFilter::DiceSimilarity(a, b), 1.0);
  BloomFilter c(512, 4);
  c.Insert("completely-different");
  EXPECT_LT(BloomFilter::DiceSimilarity(a, c), 0.5);
  BloomFilter mismatched(256, 4);
  EXPECT_DOUBLE_EQ(BloomFilter::DiceSimilarity(a, mismatched), 0.0);
}

TEST(BloomEncoderTest, TyposKeepHighDice) {
  const BloomEncoder encoder("secret", {512, 4, 2});
  const auto a = encoder.Encode({"john smith", "1970-01-02"});
  const auto b = encoder.Encode({"jon smith", "1970-01-02"});
  const auto c = encoder.Encode({"maria garcia", "1985-07-21"});
  EXPECT_GT(BloomFilter::DiceSimilarity(a, b), 0.8);
  EXPECT_LT(BloomFilter::DiceSimilarity(a, c), 0.5);
}

TEST(BloomEncoderTest, DifferentKeysProduceUnrelatedFilters) {
  const BloomEncoder k1("key1", {512, 4, 2});
  const BloomEncoder k2("key2", {512, 4, 2});
  const auto a = k1.Encode({"john smith"});
  const auto b = k2.Encode({"john smith"});
  EXPECT_LT(BloomFilter::DiceSimilarity(a, b), 0.5);
}

// --- Record linkage ---

Table People(const std::vector<std::pair<std::string, std::string>>& rows) {
  Table t(Schema{Column{"name", ColumnType::kString},
                 Column{"dob", ColumnType::kString}});
  for (const auto& [name, dob] : rows) {
    (void)t.AppendRow(Row{Value::Str(name), Value::Str(dob)});
  }
  return t;
}

TEST(PrivateRecordLinkageTest, ExactLinkViaDhPsi) {
  const Table left = People({{"ann", "1970"}, {"bob", "1980"}, {"cal", "1990"}});
  const Table right = People({{"bob", "1980"}, {"dee", "1960"}, {"cal", "1990"}});
  PrivateRecordLinkage linkage({"name", "dob"}, std::make_unique<DhPsi>(5));
  auto pairs = linkage.Link(left, right);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 2u);
  // bob↔bob and cal↔cal.
  EXPECT_EQ((*pairs)[0].left_row, 1u);
  EXPECT_EQ((*pairs)[0].right_row, 0u);
  EXPECT_EQ((*pairs)[1].left_row, 2u);
  EXPECT_EQ((*pairs)[1].right_row, 2u);
}

TEST(PrivateRecordLinkageTest, ApproximateLinkSurvivesTypos) {
  const Table left = People({{"john smith", "1970-01-02"}});
  const Table right = People({{"jon smith", "1970-01-02"}, {"maria garcia", "1985"}});
  PrivateRecordLinkage linkage({"name", "dob"}, std::make_unique<DhPsi>(5));
  // Exact linkage misses the typo...
  auto exact = linkage.Link(left, right);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->empty());
  // ...approximate Bloom linkage finds it.
  const BloomEncoder encoder("secret", {512, 4, 2});
  auto approx = linkage.LinkApproximate(left, right, encoder, 0.8);
  ASSERT_TRUE(approx.ok());
  ASSERT_EQ(approx->size(), 1u);
  EXPECT_EQ((*approx)[0].right_row, 0u);
  EXPECT_GT((*approx)[0].score, 0.8);
}

TEST(DeduplicateByKeyTest, KeepsFirstOccurrence) {
  Table t(Schema{Column{"id", ColumnType::kString}, Column{"v", ColumnType::kInt64}});
  (void)t.AppendRow(Row{Value::Str("a"), Value::Int(1)});
  (void)t.AppendRow(Row{Value::Str("b"), Value::Int(2)});
  (void)t.AppendRow(Row{Value::Str("a"), Value::Int(3)});
  auto out = DeduplicateByKey(t, {"id"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->Cell(0, 1).AsInt(), 1);  // first "a" kept
}

// Two shapes the display-string key ('\x1f'-joined ToDisplayString)
// collapsed: a separator byte inside a key string, and NULL vs "NULL".
TEST(DeduplicateByKeyTest, DistinctKeysWithSeparatorBytesBothSurvive) {
  Table t(Schema{Column{"a", ColumnType::kString}, Column{"b", ColumnType::kString}});
  (void)t.AppendRow(Row{Value::Str("a\x1f"), Value::Str("b")});
  (void)t.AppendRow(Row{Value::Str("a"), Value::Str("\x1f" "b")});
  auto out = DeduplicateByKey(t, {"a", "b"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(DeduplicateByKeyTest, NullAndTheStringNullAreDistinctKeys) {
  Table t(Schema{Column{"id", ColumnType::kString}});
  (void)t.AppendRow(Row{Value::Null()});
  (void)t.AppendRow(Row{Value::Str("NULL")});
  (void)t.AppendRow(Row{Value::Null()});
  auto out = DeduplicateByKey(t, {"id"});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_TRUE(out->Cell(0, 0).is_null());
  EXPECT_EQ(out->Cell(1, 0).AsString(), "NULL");
}

TEST(DeduplicateByKeyTest, MissingKeyColumnFails) {
  Table t(Schema{Column{"id", ColumnType::kString}});
  EXPECT_FALSE(DeduplicateByKey(t, {"nope"}).ok());
}

}  // namespace
}  // namespace linkage
}  // namespace piye
