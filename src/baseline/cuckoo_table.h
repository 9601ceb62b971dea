// Standard d-ary Cuckoo hash table (single copy, single slot) — the paper's
// first baseline ("Cuckoo", §IV.A.3).
//
// Each key lives in exactly one of its d candidate buckets. The table has no
// on-chip helping structure, so every question about a bucket — is it
// empty? does it hold the key? — costs one off-chip read. Collisions are
// resolved by the classic random-walk kick-out chain bounded by maxloop;
// overruns go to a stash (modeling the common CHS arrangement [22]) so that
// no key is ever lost, but without McCuckoo's counters every main-table miss
// must probe the stash.

#ifndef MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
#define MCCUCKOO_BASELINE_CUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
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

/// Classic d-ary cuckoo hash table with random-walk insertion.
template <typename Key, typename Value, typename Hasher = BobHasher,
          typename Family = HashFamily<Key, Hasher>>
  requires SeedableHasher<Hasher, Key>
class CuckooTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// One off-chip bucket. `occupied` models the valid bit stored with the
  /// record; reading it requires reading the bucket.
  struct Bucket {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does (it used to be a Debug-only assert).
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if (options.slots_per_bucket != 1) {
      return Status::InvalidArgument("CuckooTable is single-slot; use BchtTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit CuckooTable(const TableOptions& options)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        table_(options.num_hashes * options.buckets_per_table),
        rng_(SplitMix64(options.seed ^ 0x1234ABCD5678EF00ull)) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "CuckooTable: %s\n", s.message().c_str());
      std::abort();
    }
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(table_.size(), options.kick_counter_bits,
                                  stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  /// Validating factory for untrusted configuration.
  static Result<CuckooTable> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return CuckooTable(options);
  }

  // --- Core operations ---------------------------------------------------

  /// Inserts a key assumed not to be present.
  InsertResult Insert(Key key, Value value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    const std::array<size_t, kMaxHashes> cand = Candidates(key);
    return InsertWithCandidates(std::move(key), std::move(value), cand);
  }

  /// Inserts or updates the single copy of an existing key.
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    const int64_t idx = FindInMain(key, Candidates(key), nullptr);
    if (idx >= 0) {
      StoreBucket(static_cast<size_t>(idx), key, value, true);
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

  /// Looks `key` up (candidates in order, then the stash on a miss).
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return FindImpl(key, Candidates(key), out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  // --- Batched operations --------------------------------------------------
  //
  // Software-pipelined equivalents of the scalar operations: stage 1 hashes
  // a tile of keys and prefetches every candidate bucket; stage 2 replays
  // the unchanged scalar logic against the warm lines. Results and
  // AccessStats are identical to the scalar loop by construction.

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

  /// Deletes `key`: one off-chip write to clear the record's valid bit.
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    const int64_t idx = FindInMain(key, Candidates(key), nullptr);
    if (idx >= 0) {
      Bucket& b = table_[static_cast<size_t>(idx)];
      b.occupied = false;
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
  uint64_t capacity() const { return table_.size(); }
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

  /// No on-chip helping structure (MinCounter's kick history when active).
  size_t onchip_memory_bytes() const { return kick_history_.memory_bytes(); }

  /// Invokes `fn(key, value)` once per live key (main table + stash), in
  /// unspecified order. Uncharged maintenance/snapshot path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (const Bucket& b : table_) {
      if (b.occupied) fn(b.key, b.value);
    }
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Structural check (uncharged; testing): occupants hash to their bucket
  /// and size_ matches the number of occupied buckets.
  Status ValidateInvariants() const {
    size_t live = 0;
    for (size_t idx = 0; idx < table_.size(); ++idx) {
      if (!table_[idx].occupied) continue;
      ++live;
      const uint32_t t = static_cast<uint32_t>(idx / opts_.buckets_per_table);
      const uint64_t b = idx % opts_.buckets_per_table;
      if (family_.Bucket(table_[idx].key, t) != b) {
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

  /// Scan order for the empty-candidate scans: bubbling places fresh and
  /// displaced items as *high* (largest sub-table index) as possible,
  /// reserving headroom in the low levels for the items its eviction cycle
  /// sweeps upward (arXiv 2501.02312); every other policy scans in table
  /// order. Returns the t-th candidate to try at scan position `i`.
  uint32_t ScanLevel(uint32_t i) const {
    return opts_.eviction_policy == EvictionPolicy::kBubble
               ? opts_.num_hashes - 1 - i
               : i;
  }

  /// Scalar Insert body operating on precomputed candidates.
  InsertResult InsertWithCandidates(Key key, Value value,
                                    const std::array<size_t, kMaxHashes>& cand) {
    const uint64_t t0 = MetricsNowNs();
    // Scan candidates for an empty bucket (each check is an off-chip read).
    for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
      const uint32_t t = ScanLevel(i);
      if (!LoadBucket(cand[t]).occupied) {
        StoreBucket(cand[t], key, value, true);
        ++size_;
        metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
        return InsertResult::kInserted;
      }
    }
    // All candidates occupied: resolve per the configured policy.
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    const bool bfs = opts_.eviction_policy == EvictionPolicy::kBfs;
    uint32_t chain_len = 0;
    uint32_t bfs_nodes = 0;
    InsertResult r;
    if (bfs) {
      r = BfsInsert(std::move(key), std::move(value), cand, &chain_len,
                    &bfs_nodes);
    } else {
      r = WalkInsert(std::move(key), std::move(value), cand, &chain_len);
    }
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(
        static_cast<uint32_t>(opts_.eviction_policy), chain_len);
    if (bfs) metrics_->RecordBfsNodes(bfs_nodes);
    return r;
  }

  /// Scalar Find body operating on precomputed candidates.
  bool FindImpl(const Key& key, const std::array<size_t, kMaxHashes>& cand,
                Value* out) const {
    auto* self = const_cast<CuckooTable*>(this);
    uint32_t probes = 0;
    const int64_t idx = self->FindInMain(key, cand, out, &probes);
    LookupRecord rec;
    rec.RecordLookupOutcome(probes, idx >= 0 ? 0 : -1);
    rec.RecordPartitionProbes(0, probes);  // no partitions: slot 0
    bool hit = idx >= 0;
    if (!hit && !stash_.empty()) {
      Charged().StashProbe();
      hit = stash_.Find(key, out);
      rec.RecordStashProbe(hit);
    }
    rec.FlushTo(*metrics_);
    return hit;
  }

  /// Stage 1 of the batched paths: hash `n` keys, compute their global
  /// candidate indices, and prefetch each candidate bucket. Prefetching is
  /// a pure hint — no AccessStats are charged here.
  void StageCandidates(const Key* keys, size_t n,
                       std::array<size_t, kMaxHashes>* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    family_.BucketsBatch(keys, n, buckets.data());
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const size_t idx = static_cast<size_t>(t) * opts_.buckets_per_table +
                           static_cast<size_t>(buckets[i][t]);
        cand[i][t] = idx;
        // Branch outside the intrinsic: its rw/locality arguments must be
        // compile-time constants (a ?: only folds at -O1 and above).
        if (for_write) {
          __builtin_prefetch(&table_[idx], 1, 3);
        } else {
          __builtin_prefetch(&table_[idx], 0, 1);
        }
      }
    }
  }

  /// Random-walk / MinCounter / bubbling kick-out chain. `cand` are the
  /// (already read, all occupied) candidates of `key`.
  InsertResult WalkInsert(Key key, Value value,
                          std::array<size_t, kMaxHashes> cand,
                          uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      if (loop > 0) {
        cand = Candidates(key);
        for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
          const uint32_t t = ScanLevel(i);
          if (cand[t] == exclude) continue;  // just evicted from there
          if (!LoadBucket(cand[t]).occupied) {
            StoreBucket(cand[t], key, value, true);
            ++size_;
            *chain_len_out = chain;
            if constexpr (kMetricsEnabled) {
              ev.chain_len = chain;
              ev.n_steps = static_cast<uint32_t>(
                  std::min<size_t>(chain, kMaxTraceSteps));
              trace_.Record(ev);
            }
            return InsertResult::kInserted;
          }
        }
      }
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand, opts_.num_hashes, exclude, from_level)
              : PickVictim(cand, opts_.num_hashes, exclude, kick_history_,
                           rng_);
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          // No copy counters in the baseline: record counter 0.
          ev.step[chain] = KickStep{static_cast<uint64_t>(cand[t]), 0};
        }
      }
      const Bucket& victim = table_[cand[t]];  // already read above
      Key vk = victim.key;
      Value vv = victim.value;
      StoreBucket(cand[t], key, value, true);
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand[t]);
      exclude = cand[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    *chain_len_out = chain;
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      ev.stashed = true;
      trace_.Record(ev);
      trace_.NoteStashed();
    }
    Charged().StashWrite();
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOnchipChs &&
        stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

  /// Breadth-first search for the shortest cuckoo path [3], driven by the
  /// shared BfsFindPath engine (src/core/eviction.h): explore the eviction
  /// tree level by level until an empty bucket appears, then shift the
  /// items along the path *backwards* (empty end first) so no item is ever
  /// absent from the table. The baseline has no counters, so the only
  /// terminal is a true hole and every child check costs a charged bucket
  /// read; a local visited mirror keeps each bucket read at most once, as
  /// before the refactor.
  ///
  /// The node budget is the full maxloop, NOT the kBfsMaxNodes cap the
  /// counter-guided tables use: their searches terminate on free *or*
  /// redundant-copy buckets, so a few dozen nodes nearly always reach a
  /// terminal, while the hole-only baseline needs the deeper frontier to
  /// match the walk policies' attainable load (capping at 48 nodes dropped
  /// first-failure from ~0.90 to 0.80). The dead-end cost of the bigger
  /// budget is bounded by the same BfsThrottle the other tables run: after
  /// a failed search further inserts probe with a few nodes until one
  /// succeeds again.
  InsertResult BfsInsert(Key key, Value value,
                         const std::array<size_t, kMaxHashes>& cand,
                         uint32_t* chain_len_out, uint32_t* nodes_out) {
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) roots[t] = cand[t];
    // Alloc-free visited mirror (the per-insert unordered_set it replaces
    // was the single largest cost of a successful high-load BFS insert).
    // If a near-budget search overflows it, dedup degrades to the engine's
    // frontier scan — a bucket may be re-read, never re-enqueued.
    std::array<uint64_t, 192> seen;
    size_t seen_n = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) seen[seen_n++] = roots[t];
    auto mark_new = [&](uint64_t id) {
      for (size_t i = 0; i < seen_n; ++i) {
        if (seen[i] == id) return false;
      }
      if (seen_n < seen.size()) seen[seen_n++] = id;
      return true;
    };
    const BfsPathResult path = BfsFindPath(
        roots.data(), opts_.num_hashes,
        bfs_throttle_.Budget(opts_.maxloop),
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t bucket = static_cast<size_t>(id);
          const Key occupant = table_[bucket].key;  // read earlier
          const std::array<size_t, kMaxHashes> alt = Candidates(occupant);
          for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
            if (alt[t] == bucket) continue;
            if (!mark_new(alt[t])) continue;
            if (!LoadBucket(alt[t]).occupied) {
              terminal(alt[t]);
              return;
            }
            emit(alt[t]);
          }
        });
    bfs_throttle_.Observe(path.found);
    *nodes_out = path.nodes_expanded;
    if (path.found) {
      // Move items from the empty end backwards.
      KickChainEvent ev{};
      size_t hole = static_cast<size_t>(path.terminal);
      for (size_t i = path.node.size(); i-- > 0;) {
        const size_t src = static_cast<size_t>(path.node[i]);
        const Bucket& b = table_[src];
        StoreBucket(hole, b.key, b.value, true);
        ++stats_->kickouts;
        if constexpr (kMetricsEnabled) {
          if (i < kMaxTraceSteps) {
            // No copy counters in the baseline: record counter 0.
            ev.step[i] = KickStep{static_cast<uint64_t>(src), 0};
          }
        }
        hole = src;
      }
      StoreBucket(hole, key, value, true);
      ++size_;
      const uint32_t chain = static_cast<uint32_t>(path.node.size());
      *chain_len_out = chain;
      if constexpr (kMetricsEnabled) {
        ev.chain_len = chain;
        ev.n_steps =
            static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
        trace_.Record(ev);
      }
      return InsertResult::kInserted;
    }
    // Node budget exhausted without finding an empty bucket.
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    *chain_len_out = 0;
    if constexpr (kMetricsEnabled) {
      KickChainEvent ev{};
      ev.stashed = true;
      trace_.Record(ev);
      trace_.NoteStashed();
    }
    Charged().StashWrite();
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOnchipChs &&
        stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

  std::array<size_t, kMaxHashes> Candidates(const Key& key) const {
    std::array<size_t, kMaxHashes> c{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
             family_.Bucket(key, t);
    }
    return c;
  }

  const Bucket& LoadBucket(size_t idx) {
    ++stats_->offchip_reads;
    return table_[idx];
  }

  void StoreBucket(size_t idx, const Key& key, const Value& value,
                   bool occupied) {
    ++stats_->offchip_writes;
    Bucket& b = table_[idx];
    b.key = key;
    b.value = value;
    b.occupied = occupied;
  }

  /// Probes candidates in table order; returns the hit's global index or -1.
  /// `probes_out` (optional) receives the number of buckets read.
  int64_t FindInMain(const Key& key,
                     const std::array<size_t, kMaxHashes>& cand, Value* out,
                     uint32_t* probes_out = nullptr) {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const Bucket& b = LoadBucket(cand[t]);
      if (probes_out != nullptr) ++*probes_out;
      if (b.occupied && b.key == key) {
        if (out != nullptr) *out = b.value;
        return static_cast<int64_t>(cand[t]);
      }
    }
    return -1;
  }

  TableOptions opts_;
  Family family_;
  std::vector<Bucket> table_;
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
  // Dead-end damping for the BFS policy (see BfsInsert). The baseline has
  // no rehash, so unlike the core tables there is no reset site: the
  // throttle only relaxes again when a search succeeds.
  BfsThrottle bfs_throttle_;

  size_t size_ = 0;
  uint64_t first_collision_items_ = 0;
  uint64_t first_failure_items_ = 0;
  uint64_t forced_rehash_events_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
