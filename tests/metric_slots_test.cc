// Tests of the per-thread-slot metric cells (src/obs/metrics.h) and the
// scalar lookup record: totals fold exactly when threads share slots and
// across a growth rehash, every scalar lookup path records exactly what the
// batch path records, and a read of a stash-resident key goes straight to
// the locked stash probe instead of being retried as contended. Run under
// TSan (-DMCCUCKOO_TSAN=ON) the fold test is also the race check for the
// slot cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
#include "src/core/concurrent_mccuckoo.h"
#include "src/core/lock_stripes.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/seqlock.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;
using Sharded = ShardedMcCuckoo<Table>;

/// A small table pushed to 95% load with a short maxloop, so a good share
/// of the keys spill into the stash.
TableOptions StashOptions() {
  TableOptions o;
  o.buckets_per_table = 256;
  o.maxloop = 2;
  return o;
}

constexpr uint64_t kStashKeys = 730;  // ~95% of 3 * 256 slots

uint64_t ValueOf(uint64_t k) { return k ^ 0x5555; }

TEST(MetricSlotsTest, SlotCountIsAPowerOfTwoWithinBounds) {
  const size_t n = MetricSlotCount();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 64u);
  EXPECT_TRUE(std::has_single_bit(n));
  EXPECT_LT(ThisThreadMetricSlot(), n);
  EXPECT_EQ(ThisThreadMetricSlot(), ThisThreadMetricSlot());  // taken once
}

TEST(MetricSlotsTest, SlotCountersFoldSharedSlotsExactly) {
  constexpr uint64_t kAdds = 5000;
  const size_t threads = 2 * MetricSlotCount();
  SlotCounters<3> a;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&a] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        a.Add(0);
        a.Add(2, 3);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(a.Total(0), threads * kAdds);
  EXPECT_EQ(a.Total(1), 0u);
  EXPECT_EQ(a.Totals()[2], 3 * threads * kAdds);

  SlotCounters<3> b;
  b.Add(0, 7);
  b.MergeFrom(a);
  EXPECT_EQ(b.Total(0), threads * kAdds + 7);
  b.Reset();
  EXPECT_EQ(b.Totals(), (std::array<uint64_t, 3>{}));
}

// A read of a key that lives in the stash used to validate, report
// kContended, and be retried kMaxOptimisticSpins more times (yielding)
// before the fallback: 4 retries, 1 fallback and 4-5 Find samples for one
// read. The validated stash case now goes straight to the locked path.
template <typename Front, typename OpsSeen>
void ExpectStashReadsGoStraightToLockedPath(Front& front,
                                            const std::vector<uint64_t>& keys,
                                            OpsSeen ops_seen) {
  size_t stash_reads = 0;
  for (uint64_t k : keys) {
    const MetricsSnapshot before = front.metrics_snapshot();
    const uint64_t ops_before = ops_seen(k);
    uint64_t v = 0;
    ASSERT_TRUE(front.Find(k, &v));
    ASSERT_EQ(v, ValueOf(k));
    const MetricsSnapshot after = front.metrics_snapshot();
    EXPECT_EQ(after.optimistic_retries, before.optimistic_retries);
    EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);
    EXPECT_EQ(after.lookups, before.lookups + 1);
    EXPECT_EQ(ops_seen(k), ops_before + 1) << "one Find, one sampled op";
    if (after.stash_hits > before.stash_hits) ++stash_reads;
  }
  EXPECT_GT(stash_reads, 0u) << "no key landed in the stash";
}

template <typename Front>
void FillForStash(Front& front, const std::vector<uint64_t>& keys) {
  for (uint64_t k : keys) {
    ASSERT_NE(front.Insert(k, ValueOf(k)), InsertResult::kFailed);
  }
  ASSERT_GT(front.stash_size(), 0u);
}

TEST(MetricSlotsTest, StashReadIsNotRetriedAsContended) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const auto keys = MakeUniqueKeys(kStashKeys, 11, 0);
  const auto table_ops = [](auto& front) {
    return [&front](uint64_t) {
      return front.WithExclusive(
          [](Table& t) { return t.latency().ops_seen(LatencyOp::kFind); });
    };
  };
  {
    OptimisticReaders<Table> front(StashOptions());
    FillForStash(front, keys);
    ExpectStashReadsGoStraightToLockedPath(front, keys, table_ops(front));
  }
  {
    MultiWriter<Table> front(StashOptions());
    FillForStash(front, keys);
    ExpectStashReadsGoStraightToLockedPath(front, keys, table_ops(front));
  }
  for (const WriteMode mode :
       {WriteMode::kSingleWriter, WriteMode::kMultiWriter}) {
    TableOptions o = StashOptions();
    o.buckets_per_table *= 2;  // the same per-shard pressure on two shards
    Sharded front(o, /*num_shards=*/2, ReadMode::kOptimistic, mode);
    FillForStash(front, MakeUniqueKeys(2 * kStashKeys, 11, 0));
    ExpectStashReadsGoStraightToLockedPath(
        front, MakeUniqueKeys(2 * kStashKeys, 11, 0), [&front](uint64_t k) {
          return front.WithExclusiveShard(front.ShardOf(k), [](Table& t) {
            return t.latency().ops_seen(LatencyOp::kFind);
          });
        });
  }
}

// Every scalar lookup path — Find, TryFindOptimistic (with the locked
// probe behind kNeedsStash, as the wrappers run it) and FindStriped — must
// record exactly what FindBatch records over the same key stream, stash
// hits included.
TEST(MetricSlotsTest, ScalarLookupPathsRecordLikeFindBatch) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  TableOptions o = StashOptions();
  o.latency_sample_period = 0;  // wall-clock samples never compare equal
  const auto keys = MakeUniqueKeys(kStashKeys, 11, 0);
  std::vector<uint64_t> stream = keys;
  const auto missing = MakeUniqueKeys(300, 11, 1);
  stream.insert(stream.end(), missing.begin(), missing.end());
  std::shuffle(stream.begin(), stream.end(), std::mt19937_64(7));

  Table batch(o), scalar(o), optimistic(o), striped(o);
  for (Table* t : {&batch, &scalar, &optimistic, &striped}) {
    for (uint64_t k : keys) t->Insert(k, ValueOf(k));
    t->ResetMetrics();
  }
  ASSERT_GT(batch.stash_size(), 0u);

  std::vector<uint64_t> out(stream.size());
  std::vector<uint8_t> found(stream.size());
  const size_t batch_hits = batch.FindBatch(
      stream, out.data(), reinterpret_cast<bool*>(found.data()));
  ASSERT_EQ(batch_hits, keys.size());

  SeqlockArray opt_seq(optimistic.seqlock_domain());
  optimistic.AttachSeqlock(&opt_seq);
  SeqlockArray striped_seq(striped.seqlock_domain());
  LockStripeArray striped_locks(striped.seqlock_domain());
  striped.AttachSeqlock(&striped_seq);
  striped.AttachLockStripes(&striped_locks);

  size_t needs_stash = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t k = stream[i];
    uint64_t v = 0;
    EXPECT_EQ(scalar.Find(k, &v), found[i] != 0);
    const OptimisticResult r = optimistic.TryFindOptimistic(k, &v);
    ASSERT_NE(r, OptimisticResult::kContended) << "no writer is running";
    bool hit = r == OptimisticResult::kHit;
    if (r == OptimisticResult::kNeedsStash) {
      ++needs_stash;
      hit = optimistic.FindNoStats(k, &v);
    }
    EXPECT_EQ(hit, found[i] != 0);
    EXPECT_EQ(striped.FindStriped(k, &v), found[i] != 0);
  }
  EXPECT_GT(needs_stash, 0u);

  const MetricsSnapshot want = batch.SnapshotMetrics();
  EXPECT_EQ(want.lookups, stream.size());
  EXPECT_GT(want.stash_hits, 0u);
  EXPECT_EQ(scalar.SnapshotMetrics(), want);
  EXPECT_EQ(optimistic.SnapshotMetrics(), want);
  // The striped path also takes its candidates' lock stripes; that tally
  // is the only cell it may add.
  MetricsSnapshot striped_snap = striped.SnapshotMetrics();
  EXPECT_GE(striped_snap.writer_lock_acquisitions, stream.size());
  striped_snap.writer_lock_acquisitions = 0;
  EXPECT_EQ(striped_snap, want);
}

TEST(MetricSlotsTest, BlockedScalarLookupPathsRecordLikeFindBatch) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  using Blocked = BlockedMcCuckooTable<uint64_t, uint64_t>;
  TableOptions o;
  o.buckets_per_table = 64;
  o.slots_per_bucket = 3;
  o.maxloop = 1;
  o.latency_sample_period = 0;
  const auto keys = MakeUniqueKeys(560, 13, 0);  // ~97% of 576 slots
  std::vector<uint64_t> stream = keys;
  const auto missing = MakeUniqueKeys(200, 13, 1);
  stream.insert(stream.end(), missing.begin(), missing.end());
  std::shuffle(stream.begin(), stream.end(), std::mt19937_64(9));

  Blocked batch(o), scalar(o), optimistic(o);
  for (Blocked* t : {&batch, &scalar, &optimistic}) {
    for (uint64_t k : keys) t->Insert(k, ValueOf(k));
    t->ResetMetrics();
  }
  ASSERT_GT(batch.stash_size(), 0u);

  std::vector<uint8_t> found(stream.size());
  batch.FindBatch(stream, nullptr, reinterpret_cast<bool*>(found.data()));
  SeqlockArray seq(optimistic.seqlock_domain());
  optimistic.AttachSeqlock(&seq);
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t k = stream[i];
    EXPECT_EQ(scalar.Find(k), found[i] != 0);
    const OptimisticResult r = optimistic.TryFindOptimistic(k);
    ASSERT_NE(r, OptimisticResult::kContended);
    const bool hit = r == OptimisticResult::kNeedsStash
                         ? optimistic.FindNoStats(k)
                         : r == OptimisticResult::kHit;
    EXPECT_EQ(hit, found[i] != 0);
  }
  const MetricsSnapshot want = batch.SnapshotMetrics();
  EXPECT_GT(want.stash_hits, 0u);
  EXPECT_EQ(scalar.SnapshotMetrics(), want);
  EXPECT_EQ(optimistic.SnapshotMetrics(), want);
}

// --- Slot fold under shared slots and a growth rehash ---------------------

/// Per-thread key ranges of the fold test: `own` keys are inserted at set
/// up, `missing` ones never are.
struct ThreadKeys {
  std::vector<uint64_t> own;
  std::vector<uint64_t> missing;
};

constexpr size_t kOwnKeys = 48;

/// Runs `phase(front, keys[t])` for every thread's keys: concurrently, one
/// thread each, or one after another on this thread.
template <typename Phase>
void RunPhase(Sharded& front, const std::vector<ThreadKeys>& keys,
              bool concurrent, Phase phase) {
  if (!concurrent) {
    for (const ThreadKeys& k : keys) phase(front, k);
    return;
  }
  std::vector<std::thread> workers;
  for (const ThreadKeys& k : keys) {
    workers.emplace_back([&front, &k, &phase] { phase(front, k); });
  }
  for (auto& w : workers) w.join();
}

struct FoldRun {
  MetricsSnapshot snap;
  std::array<uint64_t, kLatencyOps> ops_seen{};
  uint64_t finds = 0;
  uint64_t topup_inserts = 0;
};

/// Updates, reads, erases, a forced growth, and reads again. Within each
/// phase every op's recorded cells depend only on the table state at the
/// phase's start, so a concurrent run and a sequential replay must record
/// identical totals — whatever the slot sharing.
FoldRun RunFoldWorkload(const std::vector<ThreadKeys>& keys, bool concurrent) {
  TableOptions o;
  o.buckets_per_table = keys.size() * kOwnKeys * 2 / 5;  // load ~0.83
  o.maxloop = 2;
  o.deletion_mode = DeletionMode::kResetCounters;
  o.growth.enabled = true;
  o.growth.max_load_factor = 0.9;
  o.growth.stash_soft_limit = 1 << 20;
  o.growth.pressure_streak_limit = 1 << 20;
  Sharded front(o, /*num_shards=*/2, ReadMode::kOptimistic,
                WriteMode::kMultiWriter);
  for (const ThreadKeys& k : keys) {
    for (uint64_t key : k.own) front.Insert(key, 0);
  }
  EXPECT_GT(front.stash_size(), 0u);

  // Reads every own key (the first `erased` of them are gone) and every
  // missing one.
  std::atomic<uint64_t> finds{0};
  const auto reads = [&finds](size_t erased) {
    return [&finds, erased](Sharded& f, const ThreadKeys& k) {
      uint64_t v = 0;
      for (size_t i = 0; i < k.own.size(); ++i) {
        const bool hit = f.Find(k.own[i], &v);
        EXPECT_EQ(hit, i >= erased);
        if (hit) {
          EXPECT_EQ(v, ValueOf(k.own[i]));
        }
      }
      for (uint64_t key : k.missing) EXPECT_FALSE(f.Find(key, &v));
      finds.fetch_add(k.own.size() + k.missing.size());
    };
  };
  RunPhase(front, keys, concurrent, [](Sharded& f, const ThreadKeys& k) {
    for (uint64_t key : k.own) {
      EXPECT_EQ(f.InsertOrAssign(key, ValueOf(key)), InsertResult::kUpdated);
    }
  });
  RunPhase(front, keys, concurrent, reads(0));
  RunPhase(front, keys, concurrent, [](Sharded& f, const ThreadKeys& k) {
    for (size_t i = 0; i < kOwnKeys / 2; ++i) EXPECT_TRUE(f.Erase(k.own[i]));
  });

  // Forced growth: top up single-threaded until a shard's growth engine
  // rehashes (GrowShardExclusive), carrying every slot through MergeFrom.
  FoldRun run;
  const auto topup = MakeUniqueKeys(keys.size() * kOwnKeys, 17, 99);
  while (front.metrics_snapshot().growth_rehashes == 0 &&
         run.topup_inserts < topup.size()) {
    front.Insert(topup[run.topup_inserts++], 1);
  }
  EXPECT_GT(front.metrics_snapshot().growth_rehashes, 0u);

  RunPhase(front, keys, concurrent, reads(kOwnKeys / 2));
  run.snap = front.metrics_snapshot();
  for (size_t s = 0; s < front.num_shards(); ++s) {
    front.WithExclusiveShard(s, [&run](Table& t) {
      for (size_t op = 0; op < kLatencyOps; ++op) {
        run.ops_seen[op] += t.latency().ops_seen(static_cast<LatencyOp>(op));
      }
    });
  }
  run.finds = finds.load();
  return run;
}

TEST(MetricSlotsTest, SharedSlotsFoldExactlyAcrossGrowth) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // Twice as many threads as slots, so every slot is shared.
  const size_t threads = 2 * MetricSlotCount();
  std::vector<ThreadKeys> keys(threads);
  for (size_t t = 0; t < threads; ++t) {
    keys[t].own = MakeUniqueKeys(kOwnKeys, 21, t);
    keys[t].missing = MakeUniqueKeys(kOwnKeys / 2, 21, 1000 + t);
  }
  const FoldRun live = RunFoldWorkload(keys, /*concurrent=*/true);
  const FoldRun replay = RunFoldWorkload(keys, /*concurrent=*/false);

  const uint64_t finds = 2 * threads * (kOwnKeys + kOwnKeys / 2);
  EXPECT_EQ(live.finds, finds);
  EXPECT_EQ(live.topup_inserts, replay.topup_inserts);
  EXPECT_EQ(live.snap.lookups, finds);
  EXPECT_EQ(live.snap.erases, threads * kOwnKeys / 2);
  // No writer runs during the read phases: nothing to retry.
  EXPECT_EQ(live.snap.optimistic_retries, 0u);
  EXPECT_EQ(live.snap.optimistic_fallbacks, 0u);
  EXPECT_EQ(live.ops_seen[static_cast<size_t>(LatencyOp::kFind)], finds);
  EXPECT_EQ(live.ops_seen[static_cast<size_t>(LatencyOp::kErase)],
            threads * kOwnKeys / 2);
  EXPECT_EQ(live.ops_seen, replay.ops_seen);

  EXPECT_EQ(live.snap.lookups, replay.snap.lookups);
  EXPECT_EQ(live.snap.lookup_probes, replay.snap.lookup_probes);
  EXPECT_EQ(live.snap.partition_hits, replay.snap.partition_hits);
  EXPECT_EQ(live.snap.partition_probes, replay.snap.partition_probes);
  EXPECT_EQ(live.snap.stash_hits, replay.snap.stash_hits);
  EXPECT_EQ(live.snap.stash_misses, replay.snap.stash_misses);
  EXPECT_EQ(live.snap.erases, replay.snap.erases);
  EXPECT_EQ(live.snap.inserts, replay.snap.inserts);
  EXPECT_EQ(live.snap.writer_lock_acquisitions,
            replay.snap.writer_lock_acquisitions);
  EXPECT_EQ(live.snap.growth_rehashes, replay.snap.growth_rehashes);
}

// A kLocked wrapper has no seqlock attached, so a growth Rehash under the
// writer lock re-seats the table's latency recorder pointer. Readers racing
// an auto-growing writer, every op sampled, must still find every
// published key and have every Find counted once; under TSan this is also
// the race check that Find touches the recorder only under the shared lock.
template <typename Front, typename FindsSeen>
void RaceLockedFindsAgainstGrowth(Front& front, FindsSeen finds_seen) {
  constexpr uint64_t kKeys = 3000;
  const std::vector<uint64_t> keys = MakeUniqueKeys(kKeys, 31, 7);
  constexpr uint64_t kReaders = 3;
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> running{0};  // readers past their first Find
  std::atomic<bool> done{false};
  std::atomic<uint64_t> finds{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (uint64_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(r);
      uint64_t n = 0;
      while (n == 0 || !done.load(std::memory_order_acquire)) {
        const uint64_t p = published.load(std::memory_order_acquire);
        if (p == 0) {
          std::this_thread::yield();
          continue;
        }
        const uint64_t k = keys[rng() % p];
        uint64_t v = 0;
        if (!front.Find(k, &v) || v != ValueOf(k)) wrong.fetch_add(1);
        if (n++ == 0) running.fetch_add(1);
        // The shared_mutex may prefer readers: leave the writer gaps.
        std::this_thread::yield();
      }
      finds.fetch_add(n);
    });
  }
  uint64_t failed = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    if (front.Insert(keys[i], ValueOf(keys[i])) == InsertResult::kFailed) {
      ++failed;
    }
    published.store(i + 1, std::memory_order_release);
    // Start growing only once every reader is reading, so the race is
    // exercised even when the readers are slow to be scheduled.
    while (i == 0 && running.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(wrong.load(), 0u);
  if (kMetricsEnabled) {
    EXPECT_GT(front.metrics_snapshot().growth_rehashes, 0u);
    EXPECT_EQ(finds_seen(), finds.load());
  }
}

TableOptions SmallGrowingOptions() {
  TableOptions o;
  o.buckets_per_table = 64;
  o.latency_sample_period = 1;
  o.growth.enabled = true;
  return o;
}

TEST(MetricSlotsTest, LockedShardedFindRacesGrowthSafely) {
  Sharded front(SmallGrowingOptions(), /*num_shards=*/2);
  ASSERT_EQ(front.read_mode(), ReadMode::kLocked);
  ASSERT_EQ(front.write_mode(), WriteMode::kSingleWriter);
  RaceLockedFindsAgainstGrowth(front, [&front] {
    uint64_t seen = 0;
    for (size_t s = 0; s < front.num_shards(); ++s) {
      seen += front.WithExclusiveShard(s, [](Table& t) {
        return t.latency().ops_seen(LatencyOp::kFind);
      });
    }
    return seen;
  });
}

TEST(MetricSlotsTest, LockedOneWriterFindRacesGrowthSafely) {
  OneWriterManyReaders<Table> front(SmallGrowingOptions());
  RaceLockedFindsAgainstGrowth(front, [&front] {
    return front.WithExclusive(
        [](Table& t) { return t.latency().ops_seen(LatencyOp::kFind); });
  });
}

}  // namespace
}  // namespace mccuckoo
