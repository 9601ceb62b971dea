// Tests of the alternative hashers (XXH64, the FPGA-style simple mixer),
// plus typed tests running the McCuckoo table under every hasher and with
// string keys — the table logic must be entirely hasher- and
// key-type-agnostic.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/mccuckoo_table.h"
#include "src/hash/hashers.h"
#include "src/hash/xxhash.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TEST(XxHashTest, EmptyInputKnownVector) {
  // Reference value from the canonical xxHash test suite.
  EXPECT_EQ(XxHash64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
}

TEST(XxHashTest, DeterministicAndSeedSensitive) {
  const char* s = "multi-copy cuckoo";
  EXPECT_EQ(XxHash64(s, 17, 1), XxHash64(s, 17, 1));
  EXPECT_NE(XxHash64(s, 17, 1), XxHash64(s, 17, 2));
}

TEST(XxHashTest, AllLengthPathsDistinct) {
  // Exercise the long-block path (>=32), the 8/4/1-byte tails.
  std::set<uint64_t> hashes;
  std::vector<uint8_t> buf(64, 0xAB);
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 32u, 33u, 63u}) {
    hashes.insert(XxHash64(buf.data(), len, 99));
  }
  EXPECT_EQ(hashes.size(), 12u);
}

TEST(XxHashTest, AvalancheOnBitFlip) {
  uint64_t key = 0x123456789ABCDEF0ull;
  const uint64_t base = XxHash64(&key, 8, 0);
  double changed = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = key ^ (1ull << bit);
    changed += __builtin_popcountll(base ^ XxHash64(&flipped, 8, 0));
  }
  EXPECT_NEAR(changed / 64.0, 32.0, 4.0);
}

TEST(SimpleFpgaHasherTest, UniformEnoughForBuckets) {
  SimpleFpgaHasher h;
  constexpr uint64_t kBuckets = 64;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < 64000; ++k) {
    ++counts[FastRange64(h(k, 12345), kBuckets)];
  }
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], 1000, 250) << b;
  }
}

TEST(SimpleFpgaHasherTest, SeedSeparates) {
  SimpleFpgaHasher h;
  int same = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    same += (FastRange64(h(k, 1), 1 << 16) == FastRange64(h(k, 2), 1 << 16));
  }
  EXPECT_LT(same, 10);
}

// The table must behave identically (correctness-wise) under any uniform
// hasher.
template <typename Hasher>
class TableHasherTest : public ::testing::Test {};

using AllHashers = ::testing::Types<BobHasher, Lookup3Hasher, SplitMixHasher,
                                    XxHasher, SimpleFpgaHasher>;
TYPED_TEST_SUITE(TableHasherTest, AllHashers);

TYPED_TEST(TableHasherTest, HighLoadRoundTrip) {
  TableOptions o;
  o.buckets_per_table = 512;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<uint64_t, uint64_t, TypeParam> t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 85 / 100, 11, 0);
  for (uint64_t k : keys) {
    ASSERT_NE(t.Insert(k, k * 3), InsertResult::kFailed);
  }
  for (size_t i = 0; i < keys.size() / 4; ++i) {
    ASSERT_TRUE(t.Erase(keys[i]));
  }
  for (size_t i = keys.size() / 4; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, keys[i] * 3);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(StringKeyTest, McCuckooWithStringKeysAndValues) {
  TableOptions o;
  o.buckets_per_table = 512;
  o.deletion_mode = DeletionMode::kResetCounters;
  McCuckooTable<std::string, std::string> t(o);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("doc/" + std::to_string(i * 7919) + "/word");
  }
  for (const auto& k : keys) {
    ASSERT_NE(t.Insert(k, "v:" + k), InsertResult::kFailed);
  }
  for (const auto& k : keys) {
    std::string v;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_FALSE(t.Contains("doc/missing/word"));
  for (size_t i = 0; i < 500; ++i) EXPECT_TRUE(t.Erase(keys[i]));
  for (size_t i = 0; i < 500; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

}  // namespace
}  // namespace mccuckoo
