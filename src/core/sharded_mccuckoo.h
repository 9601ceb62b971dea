// Sharded concurrent front-end over the multi-copy tables.
//
// OneWriterManyReaders (paper §III.H) serializes all writers behind one
// readers-writer lock, so write throughput cannot scale. This wrapper
// hash-partitions the key space over N independent shards — each a complete
// table (own hash family, counters, stash) behind its own shared_mutex — so
// writers to different shards proceed in parallel and readers only contend
// with writers of their own shard.
//
// Routing uses the top bits of a dedicated routing hash. That hash MUST be
// decorrelated from the bucket hashes: the tables reduce hashes to bucket
// indices with the multiply-shift reduction (FastRange64), which consumes
// the *high* bits, so reusing a bucket hash for routing would make every
// key of a shard land in the same region of its table. A separate routing
// seed (plus per-shard table seeds) keeps the two partitions independent.
//
// Batched operations group the batch by destination shard first and then
// process one shard at a time under a single lock span, preserving the
// per-shard prefetch pipeline (the underlying FindBatchNoStats/InsertBatch)
// and never holding more than one shard lock at once — so no lock-order
// deadlock is possible against concurrent batches.
//
// Auto-growth (options.growth.enabled) is per shard: each shard's table
// runs its own GrowthPolicy inside Insert, under that shard's unique_lock
// — a hot shard grows without pausing the others, and with optimistic
// reads the growing shard's rehash commits under its aux seqlock stripe
// so that shard's readers never block either. Aggregate metrics sum the
// per-shard growth counters; growth_suppressed counts degraded shards.
//
// WriteMode::kMultiWriter additionally runs writers concurrently *within*
// one shard: writers take the shard mutex SHARED and serialize per bucket
// through the shard's striped locks (src/core/lock_stripes.h), growth
// escalates to the exclusive side plus a full stripe drain, and — since the
// shared shard lock no longer excludes writers — readers fall back to the
// table's FindStriped (candidate-stripe locks + rehash-epoch revalidation)
// instead of the shared-lock FindNoStats. Demoted to kSingleWriter when the
// table type has no concurrent write path.

#ifndef MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
#define MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/mem/access_stats.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Hash-partitioned sharded wrapper; Table is McCuckooTable or
/// BlockedMcCuckooTable (anything with FindNoStats + the batch API).
template <typename Table>
class ShardedMcCuckoo {
 public:
  using Key = typename Table::KeyType;
  using Value = typename Table::ValueType;
  using Hasher = typename Table::HasherType;

  /// Whether optimistic reads are even possible for these types (torn
  /// reads of non-trivially-copyable records would be UB before
  /// validation could discard them).
  static constexpr bool kOptimisticCapable =
      std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>;

  /// Whether the table type exposes the striped-lock concurrent write path
  /// (McCuckooTable does; tables without it demote kMultiWriter requests).
  static constexpr bool kMultiWriterCapable =
      requires(Table& t, const Key& k, const Value& v, std::mutex& m,
               bool* w) {
        t.ConcurrentInsert(k, v, m, w);
        t.ConcurrentInsertOrAssign(k, v, m, w);
        t.ConcurrentErase(k);
        t.FindStriped(k, nullptr);
      };

  /// Builds `num_shards` (a power of two, >= 1) shards. `options` describes
  /// the *aggregate* table: each shard gets ~1/num_shards of the buckets,
  /// its own decorrelated seed, and the same policy knobs. `read_mode`
  /// opts every shard into seqlock-validated lock-free reads; it demotes
  /// to kLocked when the key/value types cannot support them. `write_mode`
  /// opts every shard into concurrent writers under its striped locks; it
  /// demotes to kSingleWriter when the table type has no concurrent path.
  ShardedMcCuckoo(const TableOptions& options, size_t num_shards,
                  ReadMode read_mode = ReadMode::kLocked,
                  WriteMode write_mode = WriteMode::kSingleWriter)
      : shard_bits_(FloorLog2(num_shards)),
        route_seed_(SplitMix64(options.seed ^ 0x9E3779B97F4A7C15ull)),
        read_mode_(kOptimisticCapable ? read_mode : ReadMode::kLocked),
        write_mode_(kMultiWriterCapable ? write_mode
                                        : WriteMode::kSingleWriter) {
    assert(num_shards >= 1 && (num_shards & (num_shards - 1)) == 0);
    shards_.reserve(num_shards);
    TableOptions shard_opts = options;
    shard_opts.buckets_per_table =
        (options.buckets_per_table + num_shards - 1) / num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      shard_opts.seed =
          SplitMix64(options.seed + 0xA24BAED4963EE407ull * (i + 1));
      shards_.push_back(std::make_unique<Shard>(shard_opts, read_mode_));
      if constexpr (kMultiWriterCapable) {
        if (write_mode_ == WriteMode::kMultiWriter) {
          Shard& s = *shards_.back();
          // Concurrent writers also need the seqlock attached: their
          // counter/bucket mutations must land inside version windows even
          // when readers are on the striped-lock path.
          s.table.AttachSeqlock(&s.seq);
          s.table.AttachLockStripes(&s.locks);
        }
      }
    }
  }

  size_t num_shards() const { return shards_.size(); }

  /// The reader policy actually in effect (post type-capability demotion).
  ReadMode read_mode() const { return read_mode_; }

  /// The writer policy actually in effect (post table-capability demotion).
  WriteMode write_mode() const { return write_mode_; }

  /// Shard index of `key` (top shard_bits_ of the routing hash).
  size_t ShardOf(const Key& key) const {
    if (shard_bits_ == 0) return 0;
    return static_cast<size_t>(hasher_(key, route_seed_) >>
                               (64 - shard_bits_));
  }

  // --- Scalar operations --------------------------------------------------

  InsertResult Insert(const Key& key, const Value& value) {
    Shard& s = *shards_[ShardOf(key)];
    if constexpr (kMultiWriterCapable) {
      if (write_mode_ == WriteMode::kMultiWriter) {
        bool wants_growth = false;
        InsertResult r;
        {
          std::shared_lock lock(s.mutex);
          r = s.table.ConcurrentInsert(key, value, s.growth_mu,
                                       &wants_growth);
        }
        if (wants_growth) GrowShardExclusive(s);
        return r;
      }
    }
    std::unique_lock lock(s.mutex);
    return s.table.Insert(key, value);
  }

  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    Shard& s = *shards_[ShardOf(key)];
    if constexpr (kMultiWriterCapable) {
      if (write_mode_ == WriteMode::kMultiWriter) {
        bool wants_growth = false;
        InsertResult r;
        {
          std::shared_lock lock(s.mutex);
          r = s.table.ConcurrentInsertOrAssign(key, value, s.growth_mu,
                                               &wants_growth);
        }
        if (wants_growth) GrowShardExclusive(s);
        return r;
      }
    }
    std::unique_lock lock(s.mutex);
    return s.table.InsertOrAssign(key, value);
  }

  bool Erase(const Key& key) {
    Shard& s = *shards_[ShardOf(key)];
    if constexpr (kMultiWriterCapable) {
      if (write_mode_ == WriteMode::kMultiWriter) {
        std::shared_lock lock(s.mutex);
        return s.table.ConcurrentErase(key);
      }
    }
    std::unique_lock lock(s.mutex);
    return s.table.Erase(key);
  }

  /// Mutation-free lookup. kLocked: shared lock + FindNoStats. kOptimistic:
  /// bounded seqlock-validated lock-free attempts against the key's shard
  /// (RetryOptimistic), then the same shared-lock fallback (readers only
  /// ever contend with their own shard's writer either way). One latency
  /// sample candidate per read. With a seqlock attached (kOptimistic or
  /// kMultiWriter) a growth Rehash keeps the recorder in place, so the
  /// sample covers the whole read, retries and fallback included. Plain
  /// kLocked samples under the shared lock only: there a growth Rehash
  /// under the unique lock re-seats the recorder pointer.
  bool Find(const Key& key, Value* out = nullptr) const {
    const Shard& s = *shards_[ShardOf(key)];
    if (!SeqlockAttached()) return LockedFind(s, key, out);
    ScopedLatencySample lat(&s.table.latency(), LatencyOp::kFind);
    if constexpr (kOptimisticCapable) {
      if (read_mode_ == ReadMode::kOptimistic) {
        const OptimisticResult r = RetryOptimistic(
            s.table.metrics(),
            [&] { return s.table.TryFindOptimistic(key, out); });
        if (r == OptimisticResult::kHit) return true;
        if (r == OptimisticResult::kMiss) return false;
      }
    }
    if constexpr (kMultiWriterCapable) {
      if (write_mode_ == WriteMode::kMultiWriter) {
        // The shared shard lock no longer excludes writers; the striped
        // fallback waits only for writers on this key's own candidates.
        return s.table.FindStriped(key, out);
      }
    }
    std::shared_lock lock(s.mutex);
    return s.table.FindNoStats(key, out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations -------------------------------------------------

  /// Batched lookup: groups keys by shard, then runs each shard's group
  /// through its prefetch-pipelined FindBatchNoStats under one shared-lock
  /// span. out[i]/found[i] line up with keys[i]; returns the hit count.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    const ShardGroups g = GroupByShard(keys);
    size_t hits = 0;
    std::vector<Key> shard_keys;
    std::vector<Value> shard_vals;
    std::vector<uint8_t> shard_found;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t n = g.CountOf(s);
      if (n == 0) continue;
      shard_keys.clear();
      for (size_t j = g.begin[s]; j < g.begin[s] + n; ++j) {
        shard_keys.push_back(keys[g.order[j]]);
      }
      shard_vals.resize(n);
      shard_found.resize(n);
      {
        const Shard& sh = *shards_[s];
        const std::span<const Key> group(shard_keys.data(), n);
        Value* group_vals = out != nullptr ? shard_vals.data() : nullptr;
        bool* group_found = reinterpret_cast<bool*>(shard_found.data());
        bool done = false;
        if constexpr (kOptimisticCapable) {
          if (read_mode_ == ReadMode::kOptimistic) {
            hits += OptimisticGroupFind(sh, group, group_vals, group_found);
            done = true;
          }
        }
        if constexpr (kMultiWriterCapable) {
          if (!done && write_mode_ == WriteMode::kMultiWriter) {
            ScopedLatencySample lat(&sh.table.latency(),
                                    LatencyOp::kFindBatch);
            hits += StripedGroupFind(sh, group, group_vals, group_found);
            done = true;
          }
        }
        if (!done) {
          std::shared_lock lock(sh.mutex);
          hits += sh.table.FindBatchNoStats(group, group_vals, group_found);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        const size_t i = g.order[g.begin[s] + j];
        if (found != nullptr) found[i] = shard_found[j] != 0;
        if (out != nullptr && shard_found[j] != 0) out[i] = shard_vals[j];
      }
    }
    return hits;
  }

  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched insert: groups keys by shard, one exclusive-lock span per
  /// shard, delegating to the shard table's pipelined InsertBatch.
  /// results[i] (optional) lines up with keys[i].
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    assert(keys.size() == values.size());
    const ShardGroups g = GroupByShard(keys);
    std::vector<Key> shard_keys;
    std::vector<Value> shard_vals;
    std::vector<InsertResult> shard_results;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t n = g.CountOf(s);
      if (n == 0) continue;
      shard_keys.clear();
      shard_vals.clear();
      for (size_t j = g.begin[s]; j < g.begin[s] + n; ++j) {
        shard_keys.push_back(keys[g.order[j]]);
        shard_vals.push_back(values[g.order[j]]);
      }
      shard_results.resize(n);
      {
        Shard& sh = *shards_[s];
        bool handled = false;
        if constexpr (kMultiWriterCapable) {
          if (write_mode_ == WriteMode::kMultiWriter) {
            // Concurrent inserts under one shared-lock span; growth
            // requests are coalesced and served after the span (the
            // single-writer batch pipeline assumes writer exclusion).
            bool wants_growth = false;
            {
              std::shared_lock lock(sh.mutex);
              for (size_t j = 0; j < n; ++j) {
                bool wg = false;
                shard_results[j] = sh.table.ConcurrentInsert(
                    shard_keys[j], shard_vals[j], sh.growth_mu, &wg);
                wants_growth = wants_growth || wg;
              }
            }
            if (wants_growth) GrowShardExclusive(sh);
            handled = true;
          }
        }
        if (!handled) {
          std::unique_lock lock(sh.mutex);
          sh.table.InsertBatch(std::span<const Key>(shard_keys.data(), n),
                               std::span<const Value>(shard_vals.data(), n),
                               shard_results.data());
        }
      }
      if (results != nullptr) {
        for (size_t j = 0; j < n; ++j) {
          results[g.order[g.begin[s] + j]] = shard_results[j];
        }
      }
    }
  }

  // --- Merged introspection -----------------------------------------------

  size_t size() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.size();
    }
    return total;
  }

  size_t stash_size() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += ShardStashSize(*s);
    }
    return total;
  }

  size_t TotalItems() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.size() + ShardStashSize(*s);
    }
    return total;
  }

  uint64_t capacity() const {
    // Capacity is no longer a construction-time constant: a shard's
    // auto-growth rehash (inside Insert, under the shard's unique_lock)
    // changes its geometry, so reading it requires the shard lock too.
    uint64_t total = 0;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      total += s->table.capacity();
    }
    return total;
  }

  double load_factor() const {
    return static_cast<double>(TotalItems()) /
           static_cast<double>(capacity());
  }

  /// Component-wise sum of all shards' writer-side access statistics.
  AccessStats stats_snapshot() const {
    AccessStats merged;
    for (const auto& s : shards_) {
      std::shared_lock lock(s->mutex);
      merged += s->table.stats();
    }
    return merged;
  }

  /// Component-wise sum of all shards' metrics (histograms merge bucket-
  /// wise; occupancy/capacity gauges sum to the aggregate view). Takes each
  /// shard's lock exclusively: in multi-writer mode the shared side no
  /// longer excludes writers, and exact totals need a quiesced shard.
  MetricsSnapshot metrics_snapshot() const {
    MetricsSnapshot merged;
    for (const auto& s : shards_) {
      std::unique_lock lock(s->mutex);
      merged += s->table.SnapshotMetrics();
    }
    return merged;
  }

  /// One shard's metrics snapshot (testing / per-shard dashboards).
  MetricsSnapshot shard_metrics_snapshot(size_t shard) const {
    const Shard& s = *shards_[shard];
    std::unique_lock lock(s.mutex);
    return s.table.SnapshotMetrics();
  }

  /// Exclusive access to one shard's table (setup/validation only). In
  /// optimistic mode the shard's aux stripe is held for `fn`'s duration,
  /// forcing lock-free readers onto the shared lock while `fn` may
  /// restructure storage (e.g. Rehash); in multi-writer mode every stripe
  /// is additionally drained so striped readers quiesce too.
  template <typename Fn>
  auto WithExclusiveShard(size_t shard, Fn&& fn) {
    Shard& s = *shards_[shard];
    std::unique_lock lock(s.mutex);
    std::optional<LockStripeDrain> drain;
    if (write_mode_ == WriteMode::kMultiWriter) drain.emplace(s.locks);
    struct AuxGuard {
      SeqlockArray* seq;
      explicit AuxGuard(SeqlockArray* s_) : seq(s_) {
        if (seq != nullptr) seq->WriteBegin(seq->aux_stripe());
      }
      ~AuxGuard() {
        if (seq != nullptr) seq->WriteEnd(seq->aux_stripe());
      }
    } guard(SeqlockAttached() ? &s.seq : nullptr);
    return std::forward<Fn>(fn)(s.table);
  }

 private:
  /// Whether every shard's table has its seqlock attached (kOptimistic
  /// reads or kMultiWriter writes): its Rehash then commits in place and
  /// keeps the metric and latency objects where readers found them.
  bool SeqlockAttached() const {
    return read_mode_ == ReadMode::kOptimistic ||
           write_mode_ == WriteMode::kMultiWriter;
  }

  // Padded to its own cache line(s) so one shard's lock traffic does not
  // false-share with its neighbours. Heap-allocated behind unique_ptr, so
  // &seq stays stable for the table's attached pointer.
  struct alignas(64) Shard {
    Shard(const TableOptions& options, ReadMode mode)
        : table(options),
          seq(table.seqlock_domain()),
          locks(table.seqlock_domain()) {
      if (mode == ReadMode::kOptimistic) table.AttachSeqlock(&seq);
      // In WriteMode::kMultiWriter the wrapper additionally attaches seq
      // and locks (the attach hook only exists on capable table types).
    }
    mutable std::shared_mutex mutex;
    Table table;
    SeqlockArray seq;
    // Striped writer locks + growth serialization for kMultiWriter shards
    // (constructed always — a few cache lines — attached only when used).
    LockStripeArray locks;
    std::mutex growth_mu;
  };

  /// Find without a seqlock attached: samples under the shared lock (see
  /// Find). Out of line, so the lock-free modes' Find stays small.
  [[gnu::noinline]] bool LockedFind(const Shard& s, const Key& key,
                                    Value* out) const {
    std::shared_lock lock(s.mutex);
    ScopedLatencySample lat(&s.table.latency(), LatencyOp::kFind);
    return s.table.FindNoStats(key, out);
  }

  /// Stash size of one shard under its (at least shared) lock: exact in
  /// single-writer mode, an annotated estimate under concurrent writers.
  size_t ShardStashSize(const Shard& s) const {
    if constexpr (kMultiWriterCapable) {
      if (write_mode_ == WriteMode::kMultiWriter) {
        return s.table.ApproxStashSize();
      }
    }
    return s.table.stash_size();
  }

  /// Per-key striped lookup for one shard's batch group (multi-writer
  /// mode: the shared shard lock would not exclude writers, so the batch
  /// pipeline's unlocked probes are off the table).
  size_t StripedGroupFind(const Shard& sh, std::span<const Key> keys,
                          Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      Value* o = out != nullptr ? out + i : nullptr;
      const bool hit = sh.table.FindStriped(keys[i], o);
      if (found != nullptr) found[i] = hit;
      if (hit) ++hits;
    }
    return hits;
  }

  /// Escalates one shard to full exclusivity (unique shard lock + stripe
  /// drain) and runs its growth engine; a no-op if a competing writer's
  /// escalation already grew the shard (the policy re-decides inside).
  void GrowShardExclusive(Shard& s) {
    std::unique_lock lock(s.mutex);
    LockStripeDrain drain(s.locks);
    s.table.MaybeGrowExclusive();
  }

  /// Stable grouping of batch positions by destination shard:
  /// order[begin[s] .. begin[s] + CountOf(s)) are the indices routed to s,
  /// in their original batch order.
  struct ShardGroups {
    std::vector<size_t> order;  // batch indices, grouped by shard
    std::vector<size_t> begin;  // per-shard start offset into order
    size_t CountOf(size_t s) const {
      const size_t end = s + 1 < begin.size() ? begin[s + 1] : order.size();
      return end - begin[s];
    }
  };

  /// Optimistic path for one shard's batch group: validates per
  /// kBatchTile-sized tile (all-or-nothing), retrying lost tiles and
  /// re-running persistent losers — and tiles that need the stash — under
  /// that shard's shared lock. Only instantiated for optimistic-capable
  /// types.
  size_t OptimisticGroupFind(const Shard& sh, std::span<const Key> keys,
                             Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t base = 0; base < keys.size(); base += Table::kBatchTile) {
      const size_t n = std::min(Table::kBatchTile, keys.size() - base);
      const std::span<const Key> tile = keys.subspan(base, n);
      Value* tile_out = out != nullptr ? out + base : nullptr;
      bool* tile_found = found != nullptr ? found + base : nullptr;
      size_t tile_hits = 0;
      if (RetryOptimistic(sh.table.metrics(), [&] {
            return sh.table.TryFindBatchOptimistic(tile, tile_out, tile_found,
                                                   &tile_hits);
          }) != OptimisticResult::kHit) {
        bool striped = false;
        if constexpr (kMultiWriterCapable) {
          // Under multi-writer the shared shard lock no longer excludes
          // writers, so the locked batch fallback would race them (the
          // stash especially); fall back per key through the stripes.
          if (write_mode_ == WriteMode::kMultiWriter) {
            tile_hits = StripedGroupFind(sh, tile, tile_out, tile_found);
            striped = true;
          }
        }
        if (!striped) {
          std::shared_lock lock(sh.mutex);
          tile_hits = sh.table.FindBatchNoStats(tile, tile_out, tile_found);
        }
      }
      hits += tile_hits;
    }
    return hits;
  }

  ShardGroups GroupByShard(std::span<const Key> keys) const {
    const size_t n_shards = shards_.size();
    std::vector<size_t> shard_of(keys.size());
    std::vector<size_t> counts(n_shards, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      shard_of[i] = ShardOf(keys[i]);
      ++counts[shard_of[i]];
    }
    ShardGroups g;
    g.begin.resize(n_shards);
    size_t off = 0;
    for (size_t s = 0; s < n_shards; ++s) {
      g.begin[s] = off;
      off += counts[s];
    }
    g.order.resize(keys.size());
    std::vector<size_t> cursor = g.begin;
    for (size_t i = 0; i < keys.size(); ++i) {
      g.order[cursor[shard_of[i]]++] = i;
    }
    return g;
  }

  static size_t FloorLog2(size_t n) {
    size_t b = 0;
    while (n > 1) {
      n >>= 1;
      ++b;
    }
    return b;
  }

  size_t shard_bits_;
  uint64_t route_seed_;
  ReadMode read_mode_;
  WriteMode write_mode_;
  Hasher hasher_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_SHARDED_MCCUCKOO_H_
