#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "linkage/bloom.h"
#include "linkage/commutative_cipher.h"
#include "linkage/psi.h"

namespace piye {
namespace linkage {
namespace {

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

}  // namespace
}  // namespace linkage
}  // namespace piye
