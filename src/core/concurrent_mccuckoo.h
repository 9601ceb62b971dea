// One-writer-many-readers concurrency wrapper (paper §III.H).
//
// Standard cuckoo hashing is sequential: during a kick chain the evicted
// item is temporarily absent from the table, so a concurrent reader could
// miss a live key. The paper observes that (a) read-heavy deployments only
// need one-writer-many-readers, and (b) McCuckoo's counters find very short
// cuckoo paths quickly, so writer critical sections are short. This wrapper
// realizes that design with a readers-writer lock, plus an optional
// optimistic read mode:
//
//  * ReadMode::kLocked (default, the paper's design): readers share the
//    lock and use the table's mutation-free FindNoStats path, so any number
//    of readers proceed in parallel; the single writer takes the lock
//    exclusively for the (short) span of an insert/erase.
//  * ReadMode::kOptimistic: readers first attempt a seqlock-validated
//    lock-free lookup (src/core/seqlock.h) — zero shared-cache-line
//    traffic on the common uncontended path. A validation failure (the
//    writer touched a candidate stripe mid-probe) is retried a few times
//    with a yield in between, then falls back to the shared lock; a
//    validated probe that needs the stash takes the shared lock at once
//    (RetryOptimistic, src/core/seqlock.h). Writers take the
//    same exclusive lock as in kLocked and additionally drive the version
//    protocol through the table's seqlock hooks, which keep every bucket a
//    kick chain touches marked in-flight until the chain commits — so
//    optimistic readers can never validate a mid-eviction state.
//
// Works over both McCuckooTable and BlockedMcCuckooTable (any table
// exposing FindNoStats / TryFindOptimistic and the seqlock attach hooks).

#ifndef MCCUCKOO_CORE_CONCURRENT_MCCUCKOO_H_
#define MCCUCKOO_CORE_CONCURRENT_MCCUCKOO_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <utility>

#include "src/core/config.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/mem/access_stats.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Readers-writer wrapper over a multi-copy table.
template <typename Table, ReadMode Mode = ReadMode::kLocked>
class OneWriterManyReaders {
 public:
  using Key = typename Table::KeyType;
  using Value = typename Table::ValueType;

  explicit OneWriterManyReaders(const TableOptions& options)
      : table_(options), seq_(table_.seqlock_domain()) {
    if constexpr (Mode == ReadMode::kOptimistic) {
      table_.AttachSeqlock(&seq_);
    }
  }

  /// Writer-side operations (exclusive). With auto-growth enabled
  /// (options.growth.enabled) an Insert may rehash the table in place;
  /// that is safe under this writer lock alone even in kOptimistic mode,
  /// because the table's Rehash opens its own aux seqlock stripe for the
  /// commit when no maintenance guard holds it — concurrent optimistic
  /// readers revalidate and retry exactly as for any other mutation.
  InsertResult Insert(const Key& key, const Value& value) {
    std::unique_lock lock(mutex_);
    return table_.Insert(key, value);
  }
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    std::unique_lock lock(mutex_);
    return table_.InsertOrAssign(key, value);
  }
  bool Erase(const Key& key) {
    std::unique_lock lock(mutex_);
    return table_.Erase(key);
  }

  /// Reader-side operations. In kLocked mode: shared lock + mutation-free
  /// probe. In kOptimistic mode: bounded lock-free attempts, then the
  /// shared lock (see file comment). One latency sample candidate per
  /// read. kOptimistic samples the whole read, retries and fallback
  /// included: with the seqlock attached a growth Rehash keeps the
  /// recorder in place. kLocked samples under the shared lock only: there
  /// a growth Rehash under the writer lock re-seats the recorder pointer.
  bool Find(const Key& key, Value* out = nullptr) const {
    if constexpr (Mode == ReadMode::kOptimistic) {
      ScopedLatencySample lat(&table_.latency(), LatencyOp::kFind);
      const OptimisticResult r = RetryOptimistic(
          table_.metrics(), [&] { return table_.TryFindOptimistic(key, out); });
      if (r == OptimisticResult::kHit) return true;
      if (r == OptimisticResult::kMiss) return false;
      std::shared_lock lock(mutex_);
      return table_.FindNoStats(key, out);
    } else {
      std::shared_lock lock(mutex_);
      ScopedLatencySample lat(&table_.latency(), LatencyOp::kFind);
      return table_.FindNoStats(key, out);
    }
  }
  bool Contains(const Key& key) const { return Find(key, nullptr); }

  /// Batched writer-side insert: one exclusive lock span for the whole
  /// batch amortizes the lock acquisition over keys.size() operations.
  /// (The table publishes seqlock versions per key, not per batch, so
  /// optimistic readers are not starved for the batch's duration.)
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    std::unique_lock lock(mutex_);
    table_.InsertBatch(keys, values, results);
  }

  /// Batched reader-side lookup, prefetch-pipelined and mutation-free.
  /// kOptimistic validates per tile (all-or-nothing): a tile that loses to
  /// the writer retries and then re-runs under the shared lock; other
  /// tiles stay lock-free. Returns hits.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    if constexpr (Mode == ReadMode::kOptimistic) {
      size_t hits = 0;
      for (size_t base = 0; base < keys.size(); base += Table::kBatchTile) {
        const size_t n = std::min(Table::kBatchTile, keys.size() - base);
        const std::span<const Key> tile = keys.subspan(base, n);
        Value* tile_out = out != nullptr ? out + base : nullptr;
        bool* tile_found = found != nullptr ? found + base : nullptr;
        size_t tile_hits = 0;
        if (RetryOptimistic(table_.metrics(), [&] {
              return table_.TryFindBatchOptimistic(tile, tile_out, tile_found,
                                                   &tile_hits);
            }) != OptimisticResult::kHit) {
          std::shared_lock lock(mutex_);
          tile_hits = table_.FindBatchNoStats(tile, tile_out, tile_found);
        }
        hits += tile_hits;
      }
      return hits;
    } else {
      std::shared_lock lock(mutex_);
      return table_.FindBatchNoStats(keys, out, found);
    }
  }
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  size_t size() const {
    std::shared_lock lock(mutex_);
    return table_.size();
  }
  size_t stash_size() const {
    std::shared_lock lock(mutex_);
    return table_.stash_size();
  }
  double load_factor() const {
    std::shared_lock lock(mutex_);
    return table_.load_factor();
  }

  /// Snapshot of the writer-side access statistics.
  AccessStats stats_snapshot() const {
    std::shared_lock lock(mutex_);
    return table_.stats();
  }

  /// Snapshot of the table's metrics (reader-path recordings and the
  /// optimistic-read retries and fallbacks included).
  MetricsSnapshot metrics_snapshot() const {
    std::shared_lock lock(mutex_);
    return table_.SnapshotMetrics();
  }

  /// Exclusive access to the underlying table (setup/validation only). In
  /// optimistic mode the aux stripe is held for `fn`'s whole duration, so
  /// lock-free readers fail validation and queue on the shared lock —
  /// required for operations that restructure storage (e.g. Rehash).
  template <typename Fn>
  auto WithExclusive(Fn&& fn) {
    std::unique_lock lock(mutex_);
    if constexpr (Mode == ReadMode::kOptimistic) {
      struct AuxGuard {
        SeqlockArray& seq;
        explicit AuxGuard(SeqlockArray& s) : seq(s) {
          seq.WriteBegin(seq.aux_stripe());
        }
        ~AuxGuard() { seq.WriteEnd(seq.aux_stripe()); }
      } guard(seq_);
      return std::forward<Fn>(fn)(table_);
    } else {
      return std::forward<Fn>(fn)(table_);
    }
  }

 private:
  mutable std::shared_mutex mutex_;
  Table table_;  // must precede seq_ (its domain sizes the array)
  SeqlockArray seq_;
};

/// The optimistic-reader policy, selectable alongside the default lock:
/// `OptimisticReaders<McCuckooTable<K, V>> table(options);`
template <typename Table>
using OptimisticReaders = OneWriterManyReaders<Table, ReadMode::kOptimistic>;

/// True multi-writer wrapper: writers run concurrently under the table's
/// striped bucket locks (src/core/lock_stripes.h) while readers stay on the
/// optimistic seqlock path. Structure:
///
///  * drain_mu_ (shared_mutex): every write takes it SHARED — writers never
///    exclude each other through it; they serialize per-bucket through the
///    lock stripes. Growth/rehash takes it EXCLUSIVE plus a LockStripeDrain
///    (every stripe, ascending), so an in-flight write never observes a
///    geometry change mid-operation and needs no epoch revalidation.
///  * Reads never touch drain_mu_: the optimistic attempt is lock-free, and
///    the fallback (FindStriped) takes only the key's own candidate stripe
///    locks, revalidating the rehash epoch after acquisition.
///  * growth_mu_ serializes the growth policy's bookkeeping (its state
///    machine is not thread-safe); the decision to grow is made under it,
///    but the rehash itself runs under the exclusive drain.
template <typename Table>
class ConcurrentMcCuckoo {
 public:
  using Key = typename Table::KeyType;
  using Value = typename Table::ValueType;

  explicit ConcurrentMcCuckoo(const TableOptions& options)
      : table_(options),
        seq_(table_.seqlock_domain()),
        locks_(table_.seqlock_domain()) {
    table_.AttachSeqlock(&seq_);
    table_.AttachLockStripes(&locks_);
  }

  /// Concurrent writer-side operations. Same contracts as the table's
  /// single-writer forms (Insert assumes the key absent; InsertOrAssign
  /// handles unknown presence).
  InsertResult Insert(const Key& key, const Value& value) {
    bool wants_growth = false;
    InsertResult r;
    {
      std::shared_lock drain(drain_mu_);
      r = table_.ConcurrentInsert(key, value, growth_mu_, &wants_growth);
    }
    if (wants_growth) GrowExclusive();
    return r;
  }
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    bool wants_growth = false;
    InsertResult r;
    {
      std::shared_lock drain(drain_mu_);
      r = table_.ConcurrentInsertOrAssign(key, value, growth_mu_,
                                          &wants_growth);
    }
    if (wants_growth) GrowExclusive();
    return r;
  }
  bool Erase(const Key& key) {
    std::shared_lock drain(drain_mu_);
    return table_.ConcurrentErase(key);
  }

  /// Reads: bounded lock-free optimistic attempts, then the striped-lock
  /// fallback — which waits only for writers touching this key's own
  /// candidate stripes, never for the table at large. A validated probe
  /// that needs the stash takes the fallback at once.
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(&table_.latency(), LatencyOp::kFind);
    const OptimisticResult r = RetryOptimistic(
        table_.metrics(), [&] { return table_.TryFindOptimistic(key, out); });
    if (r == OptimisticResult::kHit) return true;
    if (r == OptimisticResult::kMiss) return false;
    return table_.FindStriped(key, out);
  }
  bool Contains(const Key& key) const { return Find(key, nullptr); }

  /// Batched insert: scalar concurrent inserts per key. (The single-writer
  /// batch pipeline shares prefetch scratch across keys; under concurrent
  /// writers per-key stripe sections are what bounds contention, so the
  /// batch form is a convenience loop, not a pipeline.)
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const InsertResult r = Insert(keys[i], values[i]);
      if (results != nullptr) results[i] = r;
    }
  }

  /// Batched lookup: optimistic per tile, striped fallback per key for
  /// tiles that keep losing to writers.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t base = 0; base < keys.size(); base += Table::kBatchTile) {
      const size_t n = std::min(Table::kBatchTile, keys.size() - base);
      const std::span<const Key> tile = keys.subspan(base, n);
      Value* tile_out = out != nullptr ? out + base : nullptr;
      bool* tile_found = found != nullptr ? found + base : nullptr;
      size_t tile_hits = 0;
      if (RetryOptimistic(table_.metrics(), [&] {
            return table_.TryFindBatchOptimistic(tile, tile_out, tile_found,
                                                 &tile_hits);
          }) != OptimisticResult::kHit) {
        for (size_t i = 0; i < n; ++i) {
          Value* o = tile_out != nullptr ? tile_out + i : nullptr;
          const bool hit = table_.FindStriped(tile[i], o);
          if (tile_found != nullptr) tile_found[i] = hit;
          if (hit) ++tile_hits;
        }
      }
      hits += tile_hits;
    }
    return hits;
  }
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Introspection. size() reads an atomic; the stash size is an annotated
  /// estimate (writers may be spilling under the shared drain).
  size_t size() const {
    std::shared_lock drain(drain_mu_);
    return table_.size();
  }
  size_t stash_size() const {
    std::shared_lock drain(drain_mu_);
    return table_.ApproxStashSize();
  }
  double load_factor() const {
    std::shared_lock drain(drain_mu_);
    return table_.load_factor();
  }

  /// Snapshot of the writer-side access statistics. The concurrent write
  /// paths are uncharged (AccessStats is a single-writer model), so this
  /// reflects only maintenance work done under WithExclusive.
  AccessStats stats_snapshot() const {
    std::shared_lock drain(drain_mu_);
    return table_.stats();
  }

  /// Metrics snapshot under the exclusive drain: totals are exact (no
  /// writer is mid-operation) and histograms copy tear-free.
  MetricsSnapshot metrics_snapshot() const {
    std::unique_lock drain(drain_mu_);
    return table_.SnapshotMetrics();
  }

  /// Exclusive access to the underlying table (maintenance/validation):
  /// exclusive drain + every lock stripe + the aux seqlock stripe held odd,
  /// so concurrent writers, striped readers, and optimistic readers are all
  /// excluded or fail validation for fn's whole duration.
  template <typename Fn>
  auto WithExclusive(Fn&& fn) {
    std::unique_lock drain(drain_mu_);
    LockStripeDrain all(locks_);
    struct AuxGuard {
      SeqlockArray& seq;
      explicit AuxGuard(SeqlockArray& s) : seq(s) {
        seq.WriteBegin(seq.aux_stripe());
      }
      ~AuxGuard() { seq.WriteEnd(seq.aux_stripe()); }
    } guard(seq_);
    return std::forward<Fn>(fn)(table_);
  }

 private:
  /// Escalates to full exclusivity and runs the growth engine. The policy
  /// re-decides under the drain, so if a competing writer's escalation
  /// already grew the table this is a no-op.
  void GrowExclusive() {
    std::unique_lock drain(drain_mu_);
    LockStripeDrain all(locks_);
    table_.MaybeGrowExclusive();
  }

  mutable std::shared_mutex drain_mu_;
  std::mutex growth_mu_;
  Table table_;  // must precede seq_/locks_ (its domain sizes both)
  SeqlockArray seq_;
  LockStripeArray locks_;
};

/// The multi-writer policy, alongside OneWriterManyReaders /
/// OptimisticReaders: `MultiWriter<McCuckooTable<K, V>> table(options);`
template <typename Table>
using MultiWriter = ConcurrentMcCuckoo<Table>;

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_CONCURRENT_MCCUCKOO_H_
