// Tests of the scans both McCuckoo tables share through their chassis
// (src/core/table_chassis.h), typed over the single-slot and the blocked
// layout: the heatmap covers every slot exactly once, and
// RebuildStashFlags re-synchronizes the stash screen after stash erases at
// the documented cost.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <type_traits>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/hash/hash_family.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

// The chassis adds no concurrent write path: only the single-slot table
// has one, so the front-end demotes multi-writer requests for the blocked
// table.
static_assert(
    ShardedMcCuckoo<McCuckooTable<uint64_t, uint64_t>>::kMultiWriterCapable);
static_assert(!ShardedMcCuckoo<
              BlockedMcCuckooTable<uint64_t, uint64_t>>::kMultiWriterCapable);

template <typename Table>
class ChassisScanTest : public ::testing::Test {
 protected:
  /// Small BFS tables with deletions, filled past the point where inserts
  /// spill into the off-chip stash.
  static TableOptions Options() {
    TableOptions o;
    o.eviction_policy = EvictionPolicy::kBfs;
    o.deletion_mode = DeletionMode::kResetCounters;
    o.maxloop = 8;
    o.seed = 5;
    if constexpr (std::is_same_v<Table, McCuckooTable<uint64_t, uint64_t>>) {
      o.buckets_per_table = 128;
    } else {
      o.slots_per_bucket = 3;
      o.buckets_per_table = 48;
    }
    return o;
  }
};
using ChassisTables =
    ::testing::Types<McCuckooTable<uint64_t, uint64_t>,
                     BlockedMcCuckooTable<uint64_t, uint64_t>>;
TYPED_TEST_SUITE(ChassisScanTest, ChassisTables);

TYPED_TEST(ChassisScanTest, HeatmapCoversEverySlot) {
  using Table = TypeParam;
  Table t(TestFixture::Options());
  const auto keys = MakeUniqueKeys(t.capacity(), 3, 0);
  for (uint64_t k : keys) t.Insert(k, k);
  for (size_t i = 0; i < keys.size(); i += 5) t.Erase(keys[i]);

  for (size_t regions : {size_t{1}, size_t{7}, size_t{64}, size_t{100000}}) {
    SCOPED_TRACE(regions);
    const HeatmapSnapshot h = t.Heatmap(regions);
    EXPECT_EQ(h.total_slots, t.capacity());
    EXPECT_EQ(h.total_buckets * t.options().slots_per_bucket, t.capacity());
    EXPECT_EQ(std::accumulate(h.region_slots.begin(), h.region_slots.end(),
                              uint64_t{0}),
              t.capacity());
    EXPECT_EQ(std::accumulate(h.counter_values.begin(),
                              h.counter_values.end(), uint64_t{0}),
              t.capacity());
    // Every occupied slot holds one copy of a live main-table key.
    uint64_t copies = 0;
    t.ForEachItem([&](uint64_t k, uint64_t) { copies += t.CountCopies(k); });
    EXPECT_EQ(h.occupied_slots, copies);
    EXPECT_EQ(h.occupied_slots, t.capacity() - h.counter_values[0]);
    EXPECT_EQ(std::accumulate(h.region_occupied.begin(),
                              h.region_occupied.end(), uint64_t{0}),
              h.occupied_slots);
  }
}

TYPED_TEST(ChassisScanTest, RebuildStashFlagsRestoresScreen) {
  using Table = TypeParam;
  const TableOptions o = TestFixture::Options();
  Table t(o);
  const auto keys = MakeUniqueKeys(t.capacity(), 4, 0);
  std::vector<uint64_t> stashed;  // with BFS a dead end stashes its own key
  for (uint64_t k : keys) {
    if (t.Insert(k, k * 3) == InsertResult::kStashed) stashed.push_back(k);
  }
  ASSERT_GE(stashed.size(), 4u) << "the fill must spill into the stash";
  ASSERT_EQ(t.stash_size(), stashed.size());

  // Every stash spill set the flags of all the key's candidate buckets.
  HashFamily<uint64_t, BobHasher> family(o.num_hashes, o.buckets_per_table,
                                         o.seed);
  auto candidates = [&](uint64_t k) {
    const auto b = family.Buckets(k);
    std::vector<uint64_t> c;
    for (uint32_t i = 0; i < o.num_hashes; ++i) {
      c.push_back(uint64_t{i} * o.buckets_per_table + b[i]);
    }
    return c;
  };
  std::set<uint64_t> flagged;
  for (uint64_t k : stashed) {
    for (uint64_t b : candidates(k)) flagged.insert(b);
  }

  std::vector<uint64_t> kept;
  for (size_t i = 0; i < stashed.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(t.Erase(stashed[i]));
    } else {
      kept.push_back(stashed[i]);
    }
  }
  ASSERT_GT(t.stale_stash_flag_keys(), 0u);

  const AccessStats before = t.stats();
  t.RebuildStashFlags();
  const AccessStats cost = t.stats() - before;
  // One off-chip write per flag cleared, one per flag re-set (d for each
  // key still stashed), nothing else.
  EXPECT_EQ(cost.offchip_writes, flagged.size() + o.num_hashes * kept.size());
  EXPECT_EQ(cost.offchip_reads, 0u);
  EXPECT_EQ(cost.onchip_writes, 0u);
  EXPECT_EQ(t.stale_stash_flag_keys(), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants().message();
  for (uint64_t k : kept) {
    uint64_t v = 0;
    EXPECT_TRUE(t.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  for (size_t i = 0; i < stashed.size(); i += 2) {
    EXPECT_FALSE(t.Contains(stashed[i])) << stashed[i];
  }

  // A second rebuild clears exactly the flags the first one re-set.
  std::set<uint64_t> reflagged;
  for (uint64_t k : kept) {
    for (uint64_t b : candidates(k)) reflagged.insert(b);
  }
  const AccessStats before2 = t.stats();
  t.RebuildStashFlags();
  EXPECT_EQ((t.stats() - before2).offchip_writes,
            reflagged.size() + o.num_hashes * kept.size());
}

}  // namespace
}  // namespace mccuckoo
