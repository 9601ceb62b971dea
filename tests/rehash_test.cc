// Tests of the full-rehash facility (the "costly remedy" of §I.2) on both
// multi-copy layouts: items survive, the stash drains into the larger
// table, invariants hold under the new hash family, and undersized targets
// are rejected.

#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/seqlock.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

TEST(RehashTest, GrowPreservesAllItemsSingleSlot) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 100;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(700, 1, 0);  // ~91% load
  for (uint64_t k : keys) t.Insert(k, k * 3);
  ASSERT_TRUE(t.Rehash(1024, /*new_seed=*/999).ok());
  EXPECT_EQ(t.capacity(), 3u * 1024);
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(RehashTest, DrainsStashIntoBiggerTable) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.maxloop = 8;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(190, 2, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  ASSERT_GT(t.stash_size(), 0u);
  ASSERT_TRUE(t.Rehash(512, 1234).ok());
  EXPECT_EQ(t.stash_size(), 0u) << "8x table should absorb the stash";
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k)) << k;
}

TEST(RehashTest, RejectsUndersizedTarget) {
  TableOptions o;
  o.buckets_per_table = 256;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(600, 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  const Status s = t.Rehash(100, 1);  // 300 slots < 600 items
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Table untouched.
  EXPECT_EQ(t.capacity(), 3u * 256);
  for (uint64_t k : keys) EXPECT_TRUE(t.Contains(k));
}

TEST(RehashTest, ShrinkWorksWhenItemsFit) {
  TableOptions o;
  o.buckets_per_table = 1024;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(300, 4, 0);
  for (uint64_t k : keys) t.Insert(k, k + 1);
  ASSERT_TRUE(t.Rehash(256, 77).ok());
  EXPECT_EQ(t.capacity(), 3u * 256);
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k + 1);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(RehashTest, StatisticsAccumulateAcrossRebuild) {
  TableOptions o;
  o.buckets_per_table = 256;
  McCuckooTable<uint64_t, uint64_t> t(o);
  for (uint64_t k : MakeUniqueKeys(200, 5, 0)) t.Insert(k, k);
  const uint64_t writes_before = t.stats().offchip_writes;
  const uint64_t reads_before = t.stats().offchip_reads;
  ASSERT_TRUE(t.Rehash(512, 1).ok());
  // The rehash itself costs at least one read per old bucket plus the
  // re-insertion writes.
  EXPECT_GE(t.stats().offchip_reads, reads_before + 3 * 256);
  EXPECT_GT(t.stats().offchip_writes, writes_before);
}

TEST(RehashTest, GrowPreservesAllItemsBlocked) {
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = 3;
  o.maxloop = 100;
  BlockedMcCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(t.capacity() * 95 / 100, 6, 0);
  for (uint64_t k : keys) t.Insert(k, k * 7);
  ASSERT_TRUE(t.Rehash(256, 2024).ok());
  EXPECT_EQ(t.TotalItems(), keys.size());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 7);
  }
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(RehashTest, WorksWithDeletionModes) {
  TableOptions o;
  o.buckets_per_table = 256;
  o.deletion_mode = DeletionMode::kTombstone;
  McCuckooTable<uint64_t, uint64_t> t(o);
  const auto keys = MakeUniqueKeys(500, 7, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < 250; ++i) t.Erase(keys[i]);
  ASSERT_TRUE(t.Rehash(512, 3).ok());
  for (size_t i = 0; i < 250; ++i) EXPECT_FALSE(t.Contains(keys[i]));
  for (size_t i = 250; i < keys.size(); ++i) EXPECT_TRUE(t.Contains(keys[i]));
  EXPECT_EQ(t.TotalItems(), 250u);
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

// Rehash commits one way whether or not a seqlock is attached: a table
// driven by the concurrent wrappers and a bare one must come out of the
// same op stream identical, and stay identical afterwards (the BFS
// dead-end throttle included, which only shows in later inserts' costs).
template <typename Table>
class RehashTest : public ::testing::Test {};
using CommitTables = ::testing::Types<McCuckooTable<uint64_t, uint64_t>,
                                      BlockedMcCuckooTable<uint64_t, uint64_t>>;
TYPED_TEST_SUITE(RehashTest, CommitTables);

/// The snapshot's counters: every wall-clock field zeroed.
template <typename Table>
MetricsSnapshot MetricCounters(const Table& t) {
  MetricsSnapshot s = t.SnapshotMetrics();
  s.insert_ns = {};
  s.rehash_ns = {};
  s.writer_lock_wait_ns = {};
  s.op_latency_ns = {};
  return s;
}

template <typename Table>
std::map<uint64_t, uint64_t> Items(const Table& t) {
  std::map<uint64_t, uint64_t> items;
  t.ForEachItem([&](uint64_t k, uint64_t v) { items.emplace(k, v); });
  return items;
}

template <typename Table>
void ExpectSameTables(const Table& bare, const Table& wrapped,
                      const char* step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(bare.size(), wrapped.size());
  EXPECT_EQ(bare.stash_size(), wrapped.stash_size());
  EXPECT_EQ(bare.capacity(), wrapped.capacity());
  EXPECT_EQ(bare.first_collision_items(), wrapped.first_collision_items());
  EXPECT_EQ(bare.first_failure_items(), wrapped.first_failure_items());
  EXPECT_EQ(bare.redundant_writes(), wrapped.redundant_writes());
  EXPECT_EQ(bare.stale_stash_flag_keys(), wrapped.stale_stash_flag_keys());
  EXPECT_EQ(bare.forced_rehash_events(), wrapped.forced_rehash_events());
  EXPECT_EQ(bare.onchip_memory_bytes(), wrapped.onchip_memory_bytes());
  EXPECT_EQ(bare.rehash_epoch(), wrapped.rehash_epoch());
  EXPECT_EQ(bare.stats(), wrapped.stats())
      << bare.stats().ToString() << "\nvs\n" << wrapped.stats().ToString();
  EXPECT_TRUE(MetricCounters(bare) == MetricCounters(wrapped));
  EXPECT_EQ(Items(bare), Items(wrapped));
  EXPECT_TRUE(bare.CheckInvariants().ok());
  EXPECT_TRUE(wrapped.CheckInvariants().ok());
}

TYPED_TEST(RehashTest, SeqlockAttachedCommitMatchesBareCommit) {
  using Table = TypeParam;
  TableOptions o;
  o.eviction_policy = EvictionPolicy::kBfs;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.maxloop = 48;  // full BFS budget; one dead end throttles it to 16
  o.seed = 11;
  if constexpr (std::is_same_v<Table, McCuckooTable<uint64_t, uint64_t>>) {
    o.buckets_per_table = 256;
  } else {
    o.slots_per_bucket = 2;
    o.buckets_per_table = 128;
  }
  Table bare(o);
  Table wrapped(o);
  SeqlockArray seq(wrapped.seqlock_domain());
  wrapped.AttachSeqlock(&seq);

  const auto keys = MakeUniqueKeys(2 * bare.capacity(), 21, 0);
  size_t next = 0;
  // Inserts the next n keys into both tables; returns those `bare`
  // stashed (with BFS a dead end stashes the inserted key itself).
  auto insert_next = [&](size_t n) {
    std::vector<uint64_t> stashed;
    const size_t end = next + n;
    EXPECT_LE(end, keys.size());
    for (; next < end && next < keys.size(); ++next) {
      const uint64_t k = keys[next];
      if (bare.Insert(k, k + 1) == InsertResult::kStashed) {
        stashed.push_back(k);
      }
      wrapped.Insert(k, k + 1);
    }
    return stashed;
  };

  const std::vector<uint64_t> stashed =
      insert_next(bare.capacity() + bare.capacity() / 50);
  ASSERT_GE(stashed.size(), 4u) << "the fill must spill into the stash";
  // Erase every other stashed key, then every 8th key until the load is
  // 0.99: the same-size reseed below then rebuilds at a load where BFS
  // still dead-ends.
  for (size_t i = 0; i < stashed.size(); i += 2) {
    ASSERT_TRUE(bare.Erase(stashed[i]));
    ASSERT_TRUE(wrapped.Erase(stashed[i]));
  }
  for (size_t i = 1; bare.TotalItems() > bare.capacity() * 99 / 100;
       i += 8) {
    bare.Erase(keys[i]);
    wrapped.Erase(keys[i]);
  }
  ASSERT_GT(bare.stale_stash_flag_keys(), 0u);
  ExpectSameTables(bare, wrapped, "before any rehash");

  const uint64_t bpt = o.buckets_per_table;
  ASSERT_TRUE(bare.Rehash(bpt, /*new_seed=*/777).ok());
  ASSERT_TRUE(wrapped.Rehash(bpt, /*new_seed=*/777).ok());
  ExpectSameTables(bare, wrapped, "after the same-size reseed");
  insert_next(bare.capacity() / 50);
  ExpectSameTables(bare, wrapped, "inserts after the reseed");

  ASSERT_TRUE(bare.Rehash(2 * bpt, /*new_seed=*/778).ok());
  ASSERT_TRUE(wrapped.Rehash(2 * bpt, /*new_seed=*/778).ok());
  ExpectSameTables(bare, wrapped, "after the grow");
  insert_next(bare.capacity() / 4);
  ExpectSameTables(bare, wrapped, "inserts after the grow");
  EXPECT_EQ(seq.Version(seq.aux_stripe()) % 2, 0u) << "aux stripe left odd";
}

}  // namespace
}  // namespace mccuckoo
