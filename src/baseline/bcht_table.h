// Blocked Cuckoo Hash Table (BCHT) — the paper's second baseline [18].
//
// A d-hash table whose buckets hold l slots each ("3-hash 3-slot BCHT" in
// the experiments). The set-associativity inside a bucket absorbs most
// collisions, pushing the achievable load ratio well past 95%. One bucket
// is fetched per off-chip access regardless of l ([33]), so lookups still
// cost at most d reads; insertion reads candidate buckets until one has a
// free slot and falls back to random-walk eviction of a random slot.

#ifndef MCCUCKOO_BASELINE_BCHT_TABLE_H_
#define MCCUCKOO_BASELINE_BCHT_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/eviction.h"
#include "src/core/stash.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_recorder.h"

namespace mccuckoo {

/// Blocked (multi-slot) cuckoo hash table.
template <typename Key, typename Value, typename Hasher = BobHasher,
          typename Family = HashFamily<Key, Hasher>>
  requires SeedableHasher<Hasher, Key>
class BchtTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// One record slot inside a bucket.
  struct Slot {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  explicit BchtTable(const TableOptions& options)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        slots_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table * options.slots_per_bucket),
        rng_(SplitMix64(options.seed ^ 0xBC47BC47BC47BC47ull)) {
    // Constructor and Create() enforce the same rules; a direct construction
    // with bad options dies loudly in every build mode instead of asserting
    // only in Debug.
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "BchtTable: %s\n", s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(
          static_cast<size_t>(options.num_hashes) * options.buckets_per_table,
          options.kick_counter_bits, stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  /// Validating factory for untrusted configuration.
  static Result<BchtTable> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return BchtTable(options);
  }

  /// Shared option screen for the constructor and Create().
  static Status CheckOptions(const TableOptions& options) {
    Status s = options.Validate();
    if (!s.ok()) return s;
    if (options.slots_per_bucket < 2) {
      return Status::InvalidArgument(
          "BchtTable needs slots_per_bucket >= 2; use CuckooTable");
    }
    if (options.eviction_policy == EvictionPolicy::kBfs) {
      return Status::InvalidArgument(
          "BchtTable does not support BFS eviction; use CuckooTable, "
          "McCuckooTable or BlockedMcCuckooTable");
    }
    return Status::OK();
  }

  // --- Core operations ---------------------------------------------------

  /// Inserts a key assumed not to be present.
  InsertResult Insert(Key key, Value value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    const std::array<size_t, kMaxHashes> cand = CandidateBuckets(key);
    return InsertWithCandidates(std::move(key), std::move(value), cand);
  }

  /// Inserts or updates the single copy of an existing key.
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    size_t bucket;
    uint32_t slot;
    if (FindInMain(key, CandidateBuckets(key), nullptr, &bucket, &slot)) {
      StoreSlot(bucket, slot, key, value);
      return InsertResult::kUpdated;
    }
    if (!stash_.empty()) {
      Charged().StashProbe();
      const bool in_stash = stash_.Find(key, nullptr);
      metrics_->RecordStashProbe(in_stash);
      if (in_stash) {
        Charged().StashWrite();
        stash_.Insert(key, value);
        return InsertResult::kUpdated;
      }
    }
    return Insert(key, value);
  }

  /// Looks `key` up (candidate buckets in order, then the stash).
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindImpl(key, CandidateBuckets(key), out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations --------------------------------------------------
  //
  // Software-pipelined equivalents of the scalar operations: stage 1 hashes
  // a tile of keys and prefetches every candidate bucket's slot range;
  // stage 2 replays the unchanged scalar logic against the warm lines.
  // Results and AccessStats are identical to the scalar loop by
  // construction.

  /// Internal tile width for the batched paths. Capped so one tile's
  /// staged state plus touched buckets fits in L1d (see the derivation on
  /// McCuckooTable::kBatchTile); 64 overflowed it and lost ~25% on load95.
  static constexpr size_t kBatchTile = 16;

  /// Batched Find: out[i]/found[i] mirror Find(keys[i], &out[i]).
  /// Returns the number of hits. `out` may be nullptr.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<std::array<size_t, kMaxHashes>, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit = FindImpl(keys[base + i], cand[i],
                                  out != nullptr ? &out[base + i] : nullptr);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    return hits;
  }

  /// Batched Contains: found[i] = Contains(keys[i]). Returns the hit count.
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched Insert of keys assumed not present. results[i] (optional)
  /// receives the InsertResult for keys[i].
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsertBatch);
    assert(keys.size() == values.size());
    std::array<std::array<size_t, kMaxHashes>, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        const InsertResult r =
            InsertWithCandidates(keys[base + i], values[base + i], cand[i]);
        if (results != nullptr) results[base + i] = r;
      }
    }
  }

 private:
  /// Scalar Insert body operating on precomputed candidates. `cand` is
  /// taken by value because the kick-out chain reuses it as scratch.
  InsertResult InsertWithCandidates(Key key, Value value,
                                    std::array<size_t, kMaxHashes> cand) {
    const uint64_t t0 = MetricsNowNs();
    // Scan candidate buckets (one read each) for a free slot. Bubbling scans
    // the highest-numbered level first, keeping low levels in reserve.
    for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
      const uint32_t t = ScanLevel(i);
      const int slot = FreeSlotIn(cand[t]);
      if (slot >= 0) {
        StoreSlot(cand[t], static_cast<uint32_t>(slot), key, value);
        ++size_;
        metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
        return InsertResult::kInserted;
      }
    }
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    // Kick-out chain over random slots.
    size_t exclude_bucket = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the displaced item came from
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      if (loop > 0) {
        cand = CandidateBuckets(key);
        for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
          const uint32_t lvl = ScanLevel(i);
          if (cand[lvl] == exclude_bucket) continue;
          const int slot = FreeSlotIn(cand[lvl]);
          if (slot >= 0) {
            StoreSlot(cand[lvl], static_cast<uint32_t>(slot), key, value);
            ++size_;
            if constexpr (kMetricsEnabled) {
              ev.chain_len = chain;
              ev.n_steps = static_cast<uint32_t>(
                  std::min<size_t>(chain, kMaxTraceSteps));
              trace_.Record(ev);
            }
            metrics_->RecordInsert(chain, MetricsNowNs() - t0);
            metrics_->RecordPolicyChain(
                static_cast<uint32_t>(opts_.eviction_policy), chain);
            return InsertResult::kInserted;
          }
        }
      }
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand, opts_.num_hashes, exclude_bucket,
                                 from_level)
              : PickVictim(cand, opts_.num_hashes, exclude_bucket,
                           kick_history_, rng_);
      const uint32_t s =
          static_cast<uint32_t>(rng_.Below(opts_.slots_per_bucket));
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          // No copy counters in the baseline: record counter 0.
          ev.step[chain] = KickStep{static_cast<uint64_t>(cand[t]), 0};
        }
      }
      Slot& victim = slots_[SlotIndex(cand[t], s)];  // bucket already read
      Key vk = victim.key;
      Value vv = victim.value;
      StoreSlot(cand[t], s, key, value);
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand[t]);
      exclude_bucket = cand[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      ev.stashed = true;
      trace_.Record(ev);
      trace_.NoteStashed();
    }
    metrics_->RecordInsert(chain, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(static_cast<uint32_t>(opts_.eviction_policy),
                                chain);
    Charged().StashWrite();
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOnchipChs &&
        stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed : InsertResult::kFailed;
  }

  /// Scalar Find body operating on precomputed candidates.
  bool FindImpl(const Key& key, const std::array<size_t, kMaxHashes>& cand,
                Value* out) const {
    auto* self = const_cast<BchtTable*>(this);
    uint32_t probes = 0;
    const bool in_main = self->FindInMain(key, cand, out, nullptr, nullptr,
                                          &probes);
    LookupRecord rec;
    rec.RecordLookupOutcome(probes, in_main ? 0 : -1);
    rec.RecordPartitionProbes(0, probes);  // no partitions: slot 0
    bool hit = in_main;
    if (!hit && !stash_.empty()) {
      Charged().StashProbe();
      hit = stash_.Find(key, out);
      rec.RecordStashProbe(hit);
    }
    rec.FlushTo(*metrics_);
    return hit;
  }

  /// Stage 1 of the batched paths: hash `n` keys, compute their global
  /// candidate bucket indices, and prefetch each candidate bucket's whole
  /// slot range (l slots may straddle cache lines). Prefetching is a pure
  /// hint — no AccessStats are charged here.
  void StageCandidates(const Key* keys, size_t n,
                       std::array<size_t, kMaxHashes>* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    family_.BucketsBatch(keys, n, buckets.data());
    const size_t bucket_bytes = opts_.slots_per_bucket * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const size_t b = static_cast<size_t>(t) * opts_.buckets_per_table +
                         static_cast<size_t>(buckets[i][t]);
        cand[i][t] = b;
        const char* base =
            reinterpret_cast<const char*>(&slots_[SlotIndex(b, 0)]);
        // Branch outside the intrinsic: its rw/locality arguments must be
        // compile-time constants (a ?: only folds at -O1 and above).
        for (size_t off = 0; off < bucket_bytes; off += 64) {
          if (for_write) {
            __builtin_prefetch(base + off, 1, 3);
          } else {
            __builtin_prefetch(base + off, 0, 1);
          }
        }
      }
    }
  }

 public:
  /// Deletes `key`: one off-chip write to clear the slot's valid bit.
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    size_t bucket;
    uint32_t slot;
    if (FindInMain(key, CandidateBuckets(key), nullptr, &bucket, &slot)) {
      slots_[SlotIndex(bucket, slot)].occupied = false;
      ++stats_->offchip_writes;
      --size_;
      metrics_->RecordErase();
      return true;
    }
    if (!stash_.empty()) {
      Charged().StashProbe();
      const bool hit = stash_.Erase(key);
      metrics_->RecordStashProbe(hit);
      if (hit) {
        Charged().StashWrite();
        metrics_->RecordErase();
        return true;
      }
    }
    return false;
  }

  // --- Introspection -------------------------------------------------------

  size_t size() const { return size_; }
  size_t stash_size() const { return stash_.size(); }
  size_t TotalItems() const { return size_ + stash_.size(); }
  uint64_t capacity() const { return slots_.size(); }
  double load_factor() const {
    return static_cast<double>(TotalItems()) / static_cast<double>(capacity());
  }
  const TableOptions& options() const { return opts_; }
  const AccessStats& stats() const { return *stats_; }
  void ResetStats() { *stats_ = AccessStats{}; }

  /// Point-in-time metrics copy with the occupancy/capacity gauges filled
  /// (all zeros under -DMCCUCKOO_NO_METRICS). Partition metrics use slot 0:
  /// the baseline has no counter partitions.
  MetricsSnapshot SnapshotMetrics() const {
    MetricsSnapshot s = metrics_->Snapshot();
    s.occupancy_items = TotalItems();
    s.capacity_slots = capacity();
    latency_->FoldInto(&s);
    return s;
  }

  /// Clears the metrics, the kick-chain trace ring and latency samples.
  void ResetMetrics() {
    metrics_->Reset();
    trace_.Clear();
    latency_->Reset();
  }

  /// Sampled op-latency recorder.
  LatencyRecorder& latency() const { return *latency_; }

  /// Kick-chain trace ring (post-mortem inspection of recent chains).
  const TraceRecorder& trace() const { return trace_; }

  uint64_t first_collision_items() const { return first_collision_items_; }
  uint64_t first_failure_items() const { return first_failure_items_; }

  /// Times the CHS on-chip stash exceeded its capacity — forced-rehash
  /// events in a real deployment (§II.B).
  uint64_t forced_rehash_events() const { return forced_rehash_events_; }
  size_t onchip_memory_bytes() const { return kick_history_.memory_bytes(); }

  /// Invokes `fn(key, value)` once per live key (main table + stash), in
  /// unspecified order. Uncharged maintenance/snapshot path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Structural check (uncharged; testing).
  Status ValidateInvariants() const {
    size_t live = 0;
    const uint64_t nb = opts_.buckets_per_table;
    for (size_t idx = 0; idx < slots_.size(); ++idx) {
      if (!slots_[idx].occupied) continue;
      ++live;
      const size_t bucket = idx / opts_.slots_per_bucket;
      const uint32_t t = static_cast<uint32_t>(bucket / nb);
      const uint64_t b = bucket % nb;
      if (family_.Bucket(slots_[idx].key, t) != b) {
        return Status::Internal("occupant does not hash to bucket " +
                                std::to_string(idx));
      }
    }
    if (live != size_) {
      return Status::Internal("size_ mismatch: " + std::to_string(size_) +
                              " vs " + std::to_string(live));
    }
    return Status::OK();
  }

 private:
  /// The AccessStats sink for stash accesses: off-chip for the paper's
  /// stash, on-chip for the classic CHS stash.
  StatsCharge Charged() const {
    return {stats_.get(), opts_.stash_kind == StashKind::kOffchip};
  }

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  std::array<size_t, kMaxHashes> CandidateBuckets(const Key& key) const {
    std::array<size_t, kMaxHashes> c{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
             family_.Bucket(key, t);
    }
    return c;
  }

  size_t SlotIndex(size_t bucket, uint32_t slot) const {
    return bucket * opts_.slots_per_bucket + slot;
  }

  /// Free-slot scan order: natural (level 0 first) for most policies,
  /// reversed for kBubble so the low levels keep headroom for bubbling.
  uint32_t ScanLevel(uint32_t i) const {
    return opts_.eviction_policy == EvictionPolicy::kBubble
               ? opts_.num_hashes - 1 - i
               : i;
  }

  /// Reads bucket `idx` (one off-chip access) and returns a free slot index
  /// within it, or -1 if the bucket is full.
  int FreeSlotIn(size_t bucket) {
    ++stats_->offchip_reads;
    for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
      if (!slots_[SlotIndex(bucket, s)].occupied) return static_cast<int>(s);
    }
    return -1;
  }

  void StoreSlot(size_t bucket, uint32_t slot, const Key& key,
                 const Value& value) {
    ++stats_->offchip_writes;
    Slot& s = slots_[SlotIndex(bucket, slot)];
    s.key = key;
    s.value = value;
    s.occupied = true;
  }

  /// Probes candidate buckets in order. On a hit copies the value to `out`
  /// and reports the (bucket, slot) position when requested. `probes_out`
  /// (optional) receives the number of buckets read.
  bool FindInMain(const Key& key, const std::array<size_t, kMaxHashes>& cand,
                  Value* out, size_t* bucket_out, uint32_t* slot_out,
                  uint32_t* probes_out = nullptr) {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      ++stats_->offchip_reads;
      if (probes_out != nullptr) ++*probes_out;
      for (uint32_t s = 0; s < opts_.slots_per_bucket; ++s) {
        const Slot& slot = slots_[SlotIndex(cand[t], s)];
        if (slot.occupied && slot.key == key) {
          if (out != nullptr) *out = slot.value;
          if (bucket_out != nullptr) *bucket_out = cand[t];
          if (slot_out != nullptr) *slot_out = s;
          return true;
        }
      }
    }
    return false;
  }

  TableOptions opts_;
  Family family_;
  std::vector<Slot> slots_;
  // Heap-allocated so the pointer handed to CounterArray /
  // KickHistory stays valid when the table is moved (Rehash,
  // snapshot loading, factory returns).
  mutable std::unique_ptr<AccessStats> stats_ =
      std::make_unique<AccessStats>();
  // Same pattern for the metrics: atomics are immovable, the unique_ptr
  // keeps the table movable and lets const read paths record.
  mutable std::unique_ptr<TableMetrics> metrics_ =
      std::make_unique<TableMetrics>();
  // Sampled op-latency recorder (heap-held like metrics_; const read
  // paths record through it). Period applied in the constructor body.
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  TraceRecorder trace_;
  KickHistory kick_history_;
  Stash<Key, Value> stash_;
  Xoshiro256 rng_;

  size_t size_ = 0;
  uint64_t first_collision_items_ = 0;
  uint64_t first_failure_items_ = 0;
  uint64_t forced_rehash_events_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_BASELINE_BCHT_TABLE_H_
