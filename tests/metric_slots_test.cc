// Tests of the per-thread-slot metric cells (src/obs/metrics.h) and the
// scalar lookup record: totals fold exactly when threads share slots and
// across a growth rehash, every lookup path records exactly what the batch
// path records (over every pruning/deletion/stash-kind configuration), and
// a read of a stash-resident key goes straight to the locked stash probe
// instead of being retried as contended. Run under
// TSan (-DMCCUCKOO_TSAN=ON) the fold test is also the race check for the
// slot cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/blocked_mccuckoo_table.h"
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
void ExpectStashReadsGoStraightToLockedPath(Sharded& front,
                                            const std::vector<uint64_t>& keys) {
  const auto ops_seen = [&front](uint64_t k) {
    return front.WithExclusiveShard(front.ShardOf(k), [](Table& t) {
      return t.latency().ops_seen(LatencyOp::kFind);
    });
  };
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

TEST(MetricSlotsTest, StashReadIsNotRetriedAsContended) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  for (const size_t shards : {1, 2}) {
    for (const WriteMode mode :
         {WriteMode::kSingleWriter, WriteMode::kMultiWriter}) {
      TableOptions o = StashOptions();
      o.buckets_per_table *= shards;  // the same per-shard pressure
      Sharded front(o, shards, ReadMode::kOptimistic, mode);
      const auto keys = MakeUniqueKeys(shards * kStashKeys, 11, 0);
      for (uint64_t k : keys) {
        ASSERT_NE(front.Insert(k, ValueOf(k)), InsertResult::kFailed);
      }
      ASSERT_GT(front.stash_size(), 0u);
      ExpectStashReadsGoStraightToLockedPath(front, keys);
    }
  }
}

// --- Lookup parity ------------------------------------------------------
//
// Every lookup path of a table runs the same probe body, so over one key
// stream they must agree on hits and values and record exactly the metrics
// FindBatch records, stash hits included: Find, FindBatch, FindNoStats,
// FindBatchNoStats, the optimistic scalar and batch reads (with the locked
// probe behind kNeedsStash, as the wrappers run it) and, for the
// single-slot table, FindStriped. The charged paths must also charge
// alike, and the uncharged ones nothing. Checked over pruning on/off x
// every deletion mode x both stash kinds, each with a non-empty stash.

struct LookupConfig {
  bool pruning;
  DeletionMode deletion;
  StashKind stash;
};

std::vector<LookupConfig> LookupMatrix() {
  std::vector<LookupConfig> m;
  for (const bool pruning : {true, false}) {
    for (const DeletionMode deletion :
         {DeletionMode::kDisabled, DeletionMode::kResetCounters,
          DeletionMode::kTombstone}) {
      for (const StashKind stash :
           {StashKind::kOffchip, StashKind::kOnchipChs}) {
        m.push_back({pruning, deletion, stash});
      }
    }
  }
  return m;
}

std::string Describe(const LookupConfig& c) {
  static constexpr const char* kDeletion[] = {"disabled", "reset_counters",
                                              "tombstone"};
  return std::string("pruning=") + (c.pruning ? "on" : "off") +
         " deletion=" + kDeletion[static_cast<int>(c.deletion)] + " stash=" +
         (c.stash == StashKind::kOffchip ? "offchip" : "onchip_chs");
}

/// Builds one table per lookup path from `o` (identical contents: same
/// seed, inserts and erases), runs every path over `stream`, and checks
/// them against FindBatch.
template <typename T>
void ExpectLookupPathsAgree(TableOptions o, const std::vector<uint64_t>& keys,
                            std::vector<uint64_t> stream,
                            const std::string& what) {
  o.latency_sample_period = 0;  // wall-clock samples never compare equal
  constexpr bool kStriped =
      requires(const T& t, uint64_t k) { t.FindStriped(k); };
  constexpr size_t kPaths = kStriped ? 7 : 6;
  std::vector<T> tables;
  tables.reserve(kPaths);
  for (size_t p = 0; p < kPaths; ++p) {
    tables.emplace_back(o);
    T& t = tables.back();
    for (uint64_t k : keys) t.Insert(k, ValueOf(k));
    if (o.deletion_mode != DeletionMode::kDisabled) {
      for (size_t i = 0; i < keys.size(); i += 5) ASSERT_TRUE(t.Erase(keys[i]));
    }
    t.ResetMetrics();
    t.ResetStats();
  }
  T& batch = tables[0];
  T& scalar = tables[1];
  T& nostats = tables[2];
  T& batch_nostats = tables[3];
  T& optimistic = tables[4];
  T& batch_optimistic = tables[5];
  ASSERT_GT(batch.stash_size(), 0u) << what;
  // The keys still live after the erases: exactly the hits every path
  // must report.
  std::vector<uint64_t> live;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (o.deletion_mode == DeletionMode::kDisabled || i % 5 != 0) {
      live.push_back(keys[i]);
    }
  }
  std::sort(live.begin(), live.end());

  const size_t n = stream.size();
  std::vector<uint64_t> want_v(n, 0);
  std::vector<uint8_t> want_f(n, 0);
  batch.FindBatch(stream, want_v.data(), reinterpret_cast<bool*>(want_f.data()));
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(want_f[i] != 0,
              std::binary_search(live.begin(), live.end(), stream[i]))
        << what << " FindBatch key " << i;
    if (want_f[i] != 0) {
      ++hits;
      EXPECT_EQ(want_v[i], ValueOf(stream[i])) << what;
    }
  }
  ASSERT_EQ(hits, live.size()) << what;

  // Per-key paths. A hit must deliver the batch's value.
  const auto expect_key = [&](const char* path, size_t i, bool hit,
                              uint64_t v) {
    EXPECT_EQ(hit, want_f[i] != 0) << what << " " << path << " key " << i;
    if (hit) {
      EXPECT_EQ(v, want_v[i]) << what << " " << path << " key " << i;
    }
  };
  SeqlockArray opt_seq(optimistic.seqlock_domain());
  optimistic.AttachSeqlock(&opt_seq);
  size_t needs_stash = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = stream[i];
    uint64_t v = 0;
    bool hit = scalar.Find(k, &v);
    expect_key("Find", i, hit, v);
    v = 0;
    hit = nostats.FindNoStats(k, &v);
    expect_key("FindNoStats", i, hit, v);
    v = 0;
    const OptimisticResult r = optimistic.TryFindOptimistic(k, &v);
    ASSERT_NE(r, OptimisticResult::kContended) << "no writer is running";
    if (r == OptimisticResult::kNeedsStash) {
      ++needs_stash;
      hit = optimistic.FindNoStats(k, &v);
      expect_key("FindNoStats after kNeedsStash", i, hit, v);
    } else {
      expect_key("TryFindOptimistic", i, r == OptimisticResult::kHit, v);
    }
  }
  EXPECT_GT(needs_stash, 0u) << what;

  // Whole-stream and per-tile batch paths.
  std::vector<uint64_t> got_v(n, 0);
  std::vector<uint8_t> got_f(n, 0);
  batch_nostats.FindBatchNoStats(stream, got_v.data(),
                                 reinterpret_cast<bool*>(got_f.data()));
  for (size_t i = 0; i < n; ++i) {
    expect_key("FindBatchNoStats", i, got_f[i] != 0, got_v[i]);
  }
  SeqlockArray batch_seq(batch_optimistic.seqlock_domain());
  batch_optimistic.AttachSeqlock(&batch_seq);
  std::fill(got_v.begin(), got_v.end(), 0);
  std::fill(got_f.begin(), got_f.end(), 0);
  for (size_t base = 0; base < n; base += T::kBatchTile) {
    const std::span<const uint64_t> tile(
        &stream[base], std::min(T::kBatchTile, n - base));
    bool* f = reinterpret_cast<bool*>(&got_f[base]);
    size_t tile_hits = 0;
    const OptimisticResult r = batch_optimistic.TryFindBatchOptimistic(
        tile, &got_v[base], f, &tile_hits);
    ASSERT_NE(r, OptimisticResult::kContended) << "no writer is running";
    if (r == OptimisticResult::kNeedsStash) {
      batch_optimistic.FindBatchNoStats(tile, &got_v[base], f);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    expect_key("TryFindBatchOptimistic", i, got_f[i] != 0, got_v[i]);
  }

  const MetricsSnapshot want = batch.SnapshotMetrics();
  EXPECT_EQ(want.lookups, n) << what;
  EXPECT_GT(want.stash_hits, 0u) << what;
  EXPECT_EQ(scalar.SnapshotMetrics(), want) << what << " Find";
  EXPECT_EQ(nostats.SnapshotMetrics(), want) << what << " FindNoStats";
  EXPECT_EQ(batch_nostats.SnapshotMetrics(), want)
      << what << " FindBatchNoStats";
  EXPECT_EQ(optimistic.SnapshotMetrics(), want)
      << what << " TryFindOptimistic";
  EXPECT_EQ(batch_optimistic.SnapshotMetrics(), want)
      << what << " TryFindBatchOptimistic";
  // The charged paths charge alike; the uncharged ones charge nothing.
  EXPECT_EQ(scalar.stats(), batch.stats()) << what;
  EXPECT_GT(batch.stats().offchip_reads, 0u) << what;
  for (T* t : {&nostats, &batch_nostats, &optimistic, &batch_optimistic}) {
    EXPECT_EQ(t->stats(), AccessStats{}) << what;
  }

  if constexpr (kStriped) {
    T& striped = tables[6];
    SeqlockArray striped_seq(striped.seqlock_domain());
    LockStripeArray striped_locks(striped.seqlock_domain());
    striped.AttachSeqlock(&striped_seq);
    striped.AttachLockStripes(&striped_locks);
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      const bool hit = striped.FindStriped(stream[i], &v);
      expect_key("FindStriped", i, hit, v);
    }
    // The striped path also takes its candidates' lock stripes; that
    // tally is the only cell it may add.
    MetricsSnapshot striped_snap = striped.SnapshotMetrics();
    EXPECT_GE(striped_snap.writer_lock_acquisitions, n) << what;
    striped_snap.writer_lock_acquisitions = 0;
    EXPECT_EQ(striped_snap, want) << what << " FindStriped";
    EXPECT_EQ(striped.stats(), AccessStats{}) << what;
  }
}

/// `keys` plus `missing`, shuffled.
std::vector<uint64_t> LookupStream(const std::vector<uint64_t>& keys,
                                   const std::vector<uint64_t>& missing,
                                   uint64_t seed) {
  std::vector<uint64_t> stream = keys;
  stream.insert(stream.end(), missing.begin(), missing.end());
  std::shuffle(stream.begin(), stream.end(), std::mt19937_64(seed));
  return stream;
}

TEST(MetricSlotsTest, ScalarLookupPathsRecordLikeFindBatch) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const auto keys = MakeUniqueKeys(kStashKeys, 11, 0);
  const auto stream = LookupStream(keys, MakeUniqueKeys(300, 11, 1), 7);
  for (const LookupConfig& c : LookupMatrix()) {
    TableOptions o = StashOptions();
    o.lookup_pruning_enabled = c.pruning;
    o.deletion_mode = c.deletion;
    o.stash_kind = c.stash;
    ExpectLookupPathsAgree<Table>(o, keys, stream, "McCuckoo " + Describe(c));
  }
}

TEST(MetricSlotsTest, BlockedScalarLookupPathsRecordLikeFindBatch) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const auto keys = MakeUniqueKeys(560, 13, 0);  // ~97% of 576 slots
  const auto stream = LookupStream(keys, MakeUniqueKeys(200, 13, 1), 9);
  for (const LookupConfig& c : LookupMatrix()) {
    TableOptions o;
    o.buckets_per_table = 64;
    o.slots_per_bucket = 3;
    o.maxloop = 1;
    o.lookup_pruning_enabled = c.pruning;
    o.deletion_mode = c.deletion;
    o.stash_kind = c.stash;
    ExpectLookupPathsAgree<BlockedMcCuckooTable<uint64_t, uint64_t>>(
        o, keys, stream, "B-McCuckoo " + Describe(c));
  }
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
  Sharded front(SmallGrowingOptions(), /*num_shards=*/1);
  RaceLockedFindsAgainstGrowth(front, [&front] {
    return front.WithExclusiveShard(
        0, [](Table& t) { return t.latency().ops_seen(LatencyOp::kFind); });
  });
}

}  // namespace
}  // namespace mccuckoo
