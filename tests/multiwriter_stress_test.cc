// Stress and differential tests of the true multi-writer path: concurrent
// writers under striped bucket locks (ShardedMcCuckoo's kMultiWriter mode,
// at one shard and at several), with optimistic readers and the striped
// Find fallback running against them. Run under TSan (-DMCCUCKOO_TSAN=ON)
// this is the data-race check for the claim-then-move protocol; without it
// the tests still pin down counter exactness and linearizable membership.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

using Table = McCuckooTable<uint64_t, uint64_t>;

TableOptions StressOptions() {
  TableOptions o;
  o.buckets_per_table = 2048;
  o.maxloop = 200;
  o.deletion_mode = DeletionMode::kResetCounters;
  return o;
}

// Disjoint inserters racing optimistic readers (invariant 9) are covered by
// Invariant9Test in concurrent_test.cc.

// Mixed insert/erase churn from several writers over disjoint partitions,
// then a differential oracle: each writer's op log replayed serially into a
// std::unordered_map must agree with the table exactly (per-partition
// determinism follows from partition disjointness).
TEST(MultiWriterStressTest, MixedChurnMatchesSerializedOracle) {
  ShardedMcCuckoo<Table> table(StressOptions(), 1, ReadMode::kOptimistic,
                               WriteMode::kMultiWriter);
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 8000;

  struct Op {
    bool erase;
    uint64_t key;
    uint64_t value;
  };
  std::vector<std::vector<Op>> logs(kWriters);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    // Values are always key + generation tags; a torn read would surface as
    // a value outside the writer's own arithmetic.
    uint64_t i = 0;
    const auto keys = MakeUniqueKeys(512, 17, 0);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t v = 0;
      const uint64_t k = keys[i % keys.size()];
      if (table.Find(k, &v) && (v < k || v > k + kOpsPerWriter)) {
        reader_errors.fetch_add(1);
      }
      ++i;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto part = MakeUniqueKeys(512, 17, static_cast<uint64_t>(w));
      Xoshiro256 rng(1000 + static_cast<uint64_t>(w));
      auto& log = logs[w];
      log.reserve(kOpsPerWriter);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t k = part[FastRange64(rng.Next(), part.size())];
        if (rng.Next() % 4 == 0) {
          table.Erase(k);
          log.push_back({true, k, 0});
        } else {
          const uint64_t v = k + static_cast<uint64_t>(op % kOpsPerWriter);
          table.InsertOrAssign(k, v);
          log.push_back({false, k, v});
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);

  std::unordered_map<uint64_t, uint64_t> oracle;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      if (op.erase) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
  }
  EXPECT_EQ(table.size() + table.stash_size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(table.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
  EXPECT_TRUE(
      table.WithExclusiveShard(0, [](Table& t) { return t.CheckInvariants(); })
          .ok());
}

// Concurrent writers driving the table through forced growth: a small
// table with the growth engine on must escalate to the table-wide drain,
// rehash, and lose nothing.
TEST(MultiWriterStressTest, GrowthUnderConcurrentWriters) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 128;
  o.maxloop = 64;
  o.growth.enabled = true;
  o.growth.stash_soft_limit = 4;
  ShardedMcCuckoo<Table> table(o, 1, ReadMode::kOptimistic,
                               WriteMode::kMultiWriter);

  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 800;  // ~8x the initial capacity in total
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 31, static_cast<uint64_t>(w)));
  }
  std::vector<std::thread> writers;
  std::atomic<int> writer_errors{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k : keys[w]) {
        if (table.Insert(k, k + 1) == InsertResult::kFailed) {
          writer_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : writers) th.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(table.size() + table.stash_size(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 1);
    }
  }
  EXPECT_TRUE(
      table.WithExclusiveShard(0, [](Table& t) { return t.CheckInvariants(); })
          .ok());
#ifndef MCCUCKOO_NO_METRICS
  // 8x overload of a 128-bucket table cannot fit without growing.
  EXPECT_GT(table.metrics_snapshot().growth_rehashes, 0u);
#endif
}

// Single-threaded differential trace: the multi-writer mode must be
// operation-for-operation identical to the single-writer mode when only
// one thread drives it (bench/write_scaling measures the speed of the same
// pair; here we pin semantics).
TEST(MultiWriterStressTest, SingleThreadMatchesSingleWriterWrapper) {
  ShardedMcCuckoo<Table> single(StressOptions(), 1);
  ShardedMcCuckoo<Table> multi(StressOptions(), 1, ReadMode::kOptimistic,
                               WriteMode::kMultiWriter);

  const auto keys = MakeUniqueKeys(3000, 11, 0);
  Xoshiro256 rng(123);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t k = keys[FastRange64(rng.Next(), keys.size())];
    switch (rng.Next() % 4) {
      case 0: {
        const InsertResult a = single.InsertOrAssign(k, k + op);
        const InsertResult b = multi.InsertOrAssign(k, k + op);
        ASSERT_EQ(a, b) << "op " << op;
        break;
      }
      case 1: {
        ASSERT_EQ(single.Erase(k), multi.Erase(k)) << "op " << op;
        break;
      }
      default: {
        uint64_t va = 0, vb = 0;
        const bool fa = single.Find(k, &va);
        const bool fb = multi.Find(k, &vb);
        ASSERT_EQ(fa, fb) << "op " << op;
        if (fa) {
          ASSERT_EQ(va, vb) << "op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(single.size(), multi.size());
  EXPECT_EQ(single.stash_size(), multi.stash_size());
  EXPECT_TRUE(
      multi.WithExclusiveShard(0, [](Table& t) { return t.CheckInvariants(); })
          .ok());
}

// The sharded wrapper's kMultiWriter mode: all writers hammer all shards
// (no partitioning), batched and scalar reads run concurrently, and the
// final state must match the per-shard serialized oracle of disjoint key
// ownership (keys are unique, so last-writer-wins doesn't arise for
// Insert-only traffic).
TEST(MultiWriterStressTest, ShardedMultiWriterInsertStress) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 512;
  ShardedMcCuckoo<Table> table(o, /*num_shards=*/4, ReadMode::kOptimistic,
                               WriteMode::kMultiWriter);
  ASSERT_EQ(table.write_mode(), WriteMode::kMultiWriter);

  constexpr int kWriters = 4;
  constexpr size_t kPerWriter = 1000;
  std::vector<std::vector<uint64_t>> keys;
  for (int w = 0; w < kWriters; ++w) {
    keys.push_back(MakeUniqueKeys(kPerWriter, 23, static_cast<uint64_t>(w)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    constexpr size_t kB = 32;
    uint64_t out[kB];
    bool found[kB];
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int w = static_cast<int>(i % kWriters);
      table.FindBatch(std::span<const uint64_t>(keys[w].data(), kB), out,
                      found);
      for (size_t j = 0; j < kB; ++j) {
        if (found[j] && out[j] != keys[w][j] + 7) reader_errors.fetch_add(1);
      }
      ++i;
    }
  });

  std::vector<std::thread> writers;
  std::atomic<int> writer_errors{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k : keys[w]) {
        if (table.Insert(k, k + 7) == InsertResult::kFailed) {
          writer_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(table.TotalItems(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t k : keys[w]) {
      uint64_t v = 0;
      ASSERT_TRUE(table.Find(k, &v)) << k;
      EXPECT_EQ(v, k + 7);
    }
  }
  for (size_t sh = 0; sh < table.num_shards(); ++sh) {
    EXPECT_TRUE(table
                    .WithExclusiveShard(
                        sh, [](Table& t) { return t.CheckInvariants(); })
                    .ok());
  }
#ifndef MCCUCKOO_NO_METRICS
  EXPECT_GT(table.metrics_snapshot().writer_lock_acquisitions, 0u);
#endif
}

// Erase/insert churn against the sharded multi-writer mode with concurrent
// Contains probes; membership after quiescence must match the oracle.
TEST(MultiWriterStressTest, ShardedMultiWriterChurn) {
  TableOptions o = StressOptions();
  o.buckets_per_table = 512;
  ShardedMcCuckoo<Table> table(o, /*num_shards=*/2, ReadMode::kOptimistic,
                               WriteMode::kMultiWriter);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 6000;
  struct Op {
    bool erase;
    uint64_t key;
    uint64_t value;
  };
  std::vector<std::vector<Op>> logs(kWriters);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto part = MakeUniqueKeys(400, 41, static_cast<uint64_t>(w));
      Xoshiro256 rng(2000 + static_cast<uint64_t>(w));
      auto& log = logs[w];
      log.reserve(kOpsPerWriter);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t k = part[FastRange64(rng.Next(), part.size())];
        if (rng.Next() % 3 == 0) {
          table.Erase(k);
          log.push_back({true, k, 0});
        } else {
          const uint64_t v = k ^ static_cast<uint64_t>(op);
          table.InsertOrAssign(k, v);
          log.push_back({false, k, v});
        }
      }
    });
  }
  for (auto& th : writers) th.join();

  std::unordered_map<uint64_t, uint64_t> oracle;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      if (op.erase) {
        oracle.erase(op.key);
      } else {
        oracle[op.key] = op.value;
      }
    }
  }
  EXPECT_EQ(table.TotalItems(), oracle.size());
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    ASSERT_TRUE(table.Find(k, &got)) << k;
    EXPECT_EQ(got, v) << k;
  }
}

}  // namespace
}  // namespace mccuckoo
