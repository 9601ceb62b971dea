// Hit-lookup timing shared by the observability-overhead benches
// (metrics_overhead.cc, latency_overhead.cc). One shuffled key stream is
// timed three ways, each best-of-`reps`:
//
//   batch       one bulk FindBatch on one thread (one metrics flush per
//               batch, so per-op recording cost is amortised away);
//   scalar      one Find per key on one thread (one flush per lookup);
//   scalar.tN   Find on N = hardware threads at once through the
//               optimistic, multi-writer ShardedMcCuckoo the cache server
//               runs — the row that shows what shared cache lines cost.
//
// Header-only so each bench instantiates the tables in its own translation
// unit (metrics on or compiled out; see bench/CMakeLists.txt).

#ifndef MCCUCKOO_BENCH_LOOKUP_OVERHEAD_H_
#define MCCUCKOO_BENCH_LOOKUP_OVERHEAD_H_

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/mccuckoo_table.h"
#include "src/core/sharded_mccuckoo.h"
#include "src/obs/timing.h"

namespace mccuckoo {

using OverheadTable = McCuckooTable<uint64_t, uint64_t>;
using OverheadSharded = ShardedMcCuckoo<OverheadTable>;

/// Shard count of the multi-threaded row (the cache server's default).
inline constexpr size_t kOverheadShards = 8;

/// Thread count of the multi-threaded row: every hardware thread.
inline unsigned OverheadThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Row-key suffix of the multi-threaded row, e.g. ".scalar.t4".
inline std::string OverheadThreadsSuffix() {
  return ".scalar.t" + std::to_string(OverheadThreads());
}

/// Best-of-`reps` rate (lookups/s) of `pass`, which performs `lookups`
/// hit lookups and returns its hit count. Exits on a miss.
template <typename Pass>
double BestLookupRate(int reps, uint64_t lookups, Pass&& pass) {
  double best_sec = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    const uint64_t hits = pass();
    best_sec = std::min(best_sec, sw.ElapsedSeconds());
    if (hits != lookups) {
      std::fprintf(stderr,
                   "lookup self-check failed: %" PRIu64 "/%" PRIu64 " hits\n",
                   hits, lookups);
      std::exit(1);
    }
  }
  return static_cast<double>(lookups) / best_sec;
}

inline double TimeBatchFinds(const OverheadTable& table,
                             const std::vector<uint64_t>& keys, int reps) {
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  return BestLookupRate(reps, keys.size(), [&] {
    return table.FindBatch(keys, out.data(),
                           reinterpret_cast<bool*>(found.data()));
  });
}

inline double TimeScalarFinds(const OverheadTable& table,
                              const std::vector<uint64_t>& keys, int reps) {
  return BestLookupRate(reps, keys.size(), [&] {
    uint64_t hits = 0, v = 0;
    for (uint64_t k : keys) hits += table.Find(k, &v) ? 1 : 0;
    return hits;
  });
}

/// Every hardware thread looks up the whole key stream, each starting at
/// its own offset; the rate is total lookups over the pass's wall time.
inline double TimeShardedFinds(const OverheadSharded& sharded,
                               const std::vector<uint64_t>& keys, int reps) {
  const unsigned threads = OverheadThreads();
  return BestLookupRate(reps, uint64_t{threads} * keys.size(), [&] {
    std::atomic<uint64_t> hits{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const size_t n = keys.size();
        uint64_t h = 0, v = 0;
        for (size_t i = 0, j = n * t / threads; i < n; ++i, ++j) {
          h += sharded.Find(keys[j < n ? j : j - n], &v) ? 1 : 0;
        }
        hits.fetch_add(h, std::memory_order_relaxed);
      });
    }
    for (auto& w : workers) w.join();
    return hits.load();
  });
}

/// The multi-threaded row's table: `options` split over kOverheadShards
/// shards in the cache server's modes, holding `keys`.
inline OverheadSharded MakeOverheadSharded(const TableOptions& options,
                                           const std::vector<uint64_t>& keys) {
  OverheadSharded sharded(options, kOverheadShards, ReadMode::kOptimistic,
                          WriteMode::kMultiWriter);
  for (uint64_t k : keys) sharded.Insert(k, k + 1);
  return sharded;
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_LOOKUP_OVERHEAD_H_
