// The paper's two baselines (§IV.A.3) in one class template:
//
//  * standard d-ary Cuckoo ("Cuckoo"): one slot per bucket, and
//  * the Blocked Cuckoo Hash Table ([18], "3-hash 3-slot BCHT"): l >= 2
//    slots per bucket, whose set-associativity absorbs most collisions and
//    pushes the achievable load well past 95%.
//
// BCHT is d-ary cuckoo with l slots per bucket, so Cuckoo is the case
// l = 1: one storage vector of d * n * l slots, slot index = bucket * l +
// slot. Each key lives in exactly one slot of one of its d candidate
// buckets. There is no on-chip helping structure, so every question about
// a bucket — does it have a free slot? does it hold the key? — costs one
// off-chip read; one bucket is fetched per access regardless of l ([33]),
// so lookups cost at most d reads. Collisions are resolved by a kick-out
// chain bounded by maxloop (random walk, MinCounter or bubbling; BFS for
// the single-slot table only); overruns go to a stash (modeling the common
// CHS arrangement [22]) so that no key is ever lost, but without
// McCuckoo's counters every main-table miss must probe the stash.

#ifndef MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
#define MCCUCKOO_BASELINE_CUCKOO_TABLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
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

template <typename Key, typename Value, typename Hasher = BobHasher>
class CuckooTable;
template <typename Key, typename Value, typename Hasher = BobHasher>
class BchtTable;

/// Single-copy d-ary cuckoo hash table with l slots per bucket: the
/// blocked table (BCHT) when `kBlocked`, standard Cuckoo (l = 1) otherwise.
/// Use it through CuckooTable and BchtTable below.
template <typename Key, typename Value, typename Hasher, bool kBlocked>
  requires SeedableHasher<Hasher, Key>
class BaselineCuckooTable {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;
  using HasherType = Hasher;

  /// One record slot. `occupied` models the valid bit stored with the
  /// record; reading it requires reading the bucket.
  struct Slot {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  /// The public table type this instantiation is the body of.
  using Table = std::conditional_t<kBlocked, BchtTable<Key, Value, Hasher>,
                                   CuckooTable<Key, Value, Hasher>>;
  static constexpr const char* kName = kBlocked ? "BchtTable" : "CuckooTable";

  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does.
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    if constexpr (kBlocked) {
      if (options.slots_per_bucket < 2) {
        return Status::InvalidArgument(
            "BchtTable needs slots_per_bucket >= 2; use CuckooTable");
      }
      if (options.eviction_policy == EvictionPolicy::kBfs) {
        return Status::InvalidArgument(
            "BchtTable does not support BFS eviction; use CuckooTable, "
            "McCuckooTable or BlockedMcCuckooTable");
      }
    } else if (options.slots_per_bucket != 1) {
      return Status::InvalidArgument(
          "CuckooTable is single-slot; use BchtTable");
    }
    return Status::OK();
  }

  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit BaselineCuckooTable(const TableOptions& options)
      : opts_(options),
        family_(options.num_hashes, options.buckets_per_table, options.seed),
        slots_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table * options.slots_per_bucket),
        rng_(SplitMix64(options.seed ^ kRngSalt)) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", kName, s.message().c_str());
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
  static Result<Table> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return Table(options);
  }

  // --- Core operations ---------------------------------------------------

  /// Inserts a key assumed not to be present.
  InsertResult Insert(Key key, Value value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    const Candidates cand = ComputeCandidates(key);
    return InsertWithCandidates(std::move(key), std::move(value), cand);
  }

  /// Inserts or updates the single copy of an existing key.
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    uint32_t probes = 0;
    const size_t hit = ProbeMain(key, ComputeCandidates(key), &probes);
    if (hit != kNoSlot) {
      Store(hit, key, value);
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

  /// Looks `key` up (candidate buckets in order, then the stash on a miss).
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return Lookup(key, ComputeCandidates(key), out);
  }

  bool Contains(const Key& key) const { return Find(key, nullptr); }

  /// Deletes `key`: one off-chip write to clear the slot's valid bit.
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    uint32_t probes = 0;
    const size_t hit = ProbeMain(key, ComputeCandidates(key), &probes);
    if (hit != kNoSlot) {
      slots_[hit].occupied = false;
      ++stats_->offchip_writes;
      --size_;
      metrics_->RecordErase();
      return true;
    }
    if (!stash_.empty()) {
      Charged().StashProbe();
      const bool in_stash = stash_.Erase(key);
      metrics_->RecordStashProbe(in_stash);
      if (in_stash) {
        Charged().StashWrite();
        metrics_->RecordErase();
        return true;
      }
    }
    return false;
  }

  // --- Batched operations --------------------------------------------------
  //
  // Software-pipelined equivalents of the scalar operations: stage 1 hashes
  // a tile of keys and prefetches every candidate bucket's slot range;
  // stage 2 replays the unchanged scalar logic against the warm lines.
  // Results and AccessStats are identical to the scalar loop by
  // construction.

  /// Internal tile width for the batched paths. Capped so one tile's
  /// staged state plus touched buckets fits in L1d (see the derivation on
  /// McCuckooChassis::kBatchTile); 64 overflowed it and lost ~25% on load95.
  static constexpr size_t kBatchTile = 16;

  /// Batched Find: out[i]/found[i] mirror Find(keys[i], &out[i]).
  /// Returns the number of hits. `out` may be nullptr.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit = Lookup(keys[base + i], cand[i],
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
    std::array<Candidates, kBatchTile> cand;
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
  /// the baselines have no counter partitions.
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
  /// unspecified order. Uncharged maintenance path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.occupied) fn(s.key, s.value);
    }
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Structural check (uncharged; testing): occupants hash to their bucket
  /// and size_ matches the number of occupied slots.
  Status ValidateInvariants() const {
    size_t live = 0;
    const uint64_t nb = opts_.buckets_per_table;
    for (size_t idx = 0; idx < slots_.size(); ++idx) {
      if (!slots_[idx].occupied) continue;
      ++live;
      const size_t bucket = idx / SlotsPerBucket();
      const uint32_t t = static_cast<uint32_t>(bucket / nb);
      if (family_.Bucket(slots_[idx].key, t) != bucket % nb) {
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
  /// The d global candidate bucket indices of a key (index = t *
  /// buckets_per_table + h_t(key)).
  using Candidates = std::array<size_t, kMaxHashes>;

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Per-kind eviction-RNG salt. The paper-figure outputs at a fixed seed
  /// depend on it through every random victim choice: a new value changes
  /// every kick chain of that kind.
  static constexpr uint64_t kRngSalt =
      kBlocked ? 0xBC47BC47BC47BC47ull : 0x1234ABCD5678EF00ull;

  /// l, a compile-time 1 for the single-slot table so its slot loops fold.
  uint32_t SlotsPerBucket() const {
    if constexpr (kBlocked) {
      return opts_.slots_per_bucket;
    } else {
      return 1;
    }
  }

  size_t SlotIndex(size_t bucket, uint32_t slot) const {
    return bucket * SlotsPerBucket() + slot;
  }

  /// The AccessStats sink for stash accesses: off-chip for the paper's
  /// stash, on-chip for the classic CHS stash.
  StatsCharge Charged() const {
    return {stats_.get(), opts_.stash_kind == StashKind::kOffchip};
  }

  Candidates ComputeCandidates(const Key& key) const {
    Candidates c{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
             family_.Bucket(key, t);
    }
    return c;
  }

  /// Stage 1 of the batched paths: hash `n` keys, compute their candidate
  /// bucket indices, and prefetch every 64 B of each candidate bucket (l
  /// slots may straddle cache lines). Prefetching is a pure hint — no
  /// AccessStats are charged here.
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, kBatchTile> buckets;
    family_.BucketsBatch(keys, n, buckets.data());
    const size_t bucket_bytes = SlotsPerBucket() * sizeof(Slot);
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

  /// The one main-table probe: reads the candidate buckets in table order
  /// (one off-chip read each, counted in `*probes`) and returns the slot
  /// index holding `key`, or kNoSlot.
  size_t ProbeMain(const Key& key, const Candidates& cand,
                   uint32_t* probes) const {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      ++stats_->offchip_reads;
      ++*probes;
      const size_t base = SlotIndex(cand[t], 0);
      for (uint32_t s = 0; s < SlotsPerBucket(); ++s) {
        const Slot& slot = slots_[base + s];
        if (slot.occupied && slot.key == key) return base + s;
      }
    }
    return kNoSlot;
  }

  /// Find body over precomputed candidates: the main-table probe, then the
  /// stash on a miss, recording the lookup metrics.
  bool Lookup(const Key& key, const Candidates& cand, Value* out) const {
    uint32_t probes = 0;
    const size_t hit = ProbeMain(key, cand, &probes);
    LookupRecord rec;
    rec.RecordLookupOutcome(probes, hit != kNoSlot ? 0 : -1);
    rec.RecordPartitionProbes(0, probes);  // no partitions: slot 0
    bool found = hit != kNoSlot;
    if (found) {
      if (out != nullptr) *out = slots_[hit].value;
    } else if (!stash_.empty()) {
      Charged().StashProbe();
      found = stash_.Find(key, out);
      rec.RecordStashProbe(found);
    }
    rec.FlushTo(*metrics_);
    return found;
  }

  /// Reads `bucket` (one off-chip access) and returns the index of a free
  /// slot in it, or kNoSlot if the bucket is full.
  size_t FreeSlotIn(size_t bucket) {
    ++stats_->offchip_reads;
    const size_t base = SlotIndex(bucket, 0);
    for (uint32_t s = 0; s < SlotsPerBucket(); ++s) {
      if (!slots_[base + s].occupied) return base + s;
    }
    return kNoSlot;
  }

  void Store(size_t slot, const Key& key, const Value& value) {
    ++stats_->offchip_writes;
    Slot& s = slots_[slot];
    s.key = key;
    s.value = value;
    s.occupied = true;
  }

  /// Scan order for the free-slot scans: bubbling places fresh and
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
                                    const Candidates& cand) {
    const uint64_t t0 = MetricsNowNs();
    // Scan candidate buckets (one read each) for a free slot.
    for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
      const size_t slot = FreeSlotIn(cand[ScanLevel(i)]);
      if (slot != kNoSlot) {
        Store(slot, key, value);
        ++size_;
        metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
        return InsertResult::kInserted;
      }
    }
    // All candidates full: resolve per the configured policy.
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    uint32_t chain_len = 0;
    uint32_t bfs_nodes = 0;
    bool bfs = false;
    InsertResult r;
    if constexpr (!kBlocked) {
      bfs = opts_.eviction_policy == EvictionPolicy::kBfs;
      if (bfs) {
        r = BfsInsert(std::move(key), std::move(value), cand, &chain_len,
                      &bfs_nodes);
      }
    }
    if (!bfs) {
      r = WalkInsert(std::move(key), std::move(value), cand, &chain_len);
    }
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(
        static_cast<uint32_t>(opts_.eviction_policy), chain_len);
    if (bfs) metrics_->RecordBfsNodes(bfs_nodes);
    return r;
  }

  /// Finishes a kick chain's trace event (no-op without metrics).
  void TraceChain(KickChainEvent& ev, uint32_t chain, bool stashed) {
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      ev.stashed = stashed;
      trace_.Record(ev);
      if (stashed) trace_.NoteStashed();
    }
  }

  /// The chain overran its budget: the item in hand goes to the stash.
  InsertResult SpillToStash(const Key& key, const Value& value,
                            KickChainEvent& ev, uint32_t chain) {
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    TraceChain(ev, chain, /*stashed=*/true);
    Charged().StashWrite();
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOnchipChs &&
        stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

  /// Random-walk / MinCounter / bubbling kick-out chain. `cand` are the
  /// (already read, all full) candidates of `key`; the chain reuses the
  /// array as scratch.
  InsertResult WalkInsert(Key key, Value value, Candidates cand,
                          uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      if (loop > 0) {
        cand = ComputeCandidates(key);
        for (uint32_t i = 0; i < opts_.num_hashes; ++i) {
          const uint32_t t = ScanLevel(i);
          if (cand[t] == exclude) continue;  // just evicted from there
          const size_t slot = FreeSlotIn(cand[t]);
          if (slot != kNoSlot) {
            Store(slot, key, value);
            ++size_;
            *chain_len_out = chain;
            TraceChain(ev, chain, /*stashed=*/false);
            return InsertResult::kInserted;
          }
        }
      }
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand, opts_.num_hashes, exclude, from_level)
              : PickVictim(cand, opts_.num_hashes, exclude, kick_history_,
                           rng_);
      // The victim slot. Drawn only when l > 1: Xoshiro256::Below always
      // consumes a Next(), so a draw at l = 1 would shift every later
      // victim choice of the single-slot table.
      uint32_t s = 0;
      if constexpr (kBlocked) {
        s = static_cast<uint32_t>(rng_.Below(opts_.slots_per_bucket));
      }
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          // No copy counters in the baselines: record counter 0.
          ev.step[chain] = KickStep{static_cast<uint64_t>(cand[t]), 0};
        }
      }
      const size_t slot = SlotIndex(cand[t], s);
      Key vk = slots_[slot].key;  // bucket already read above
      Value vv = slots_[slot].value;
      Store(slot, key, value);
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand[t]);
      exclude = cand[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    *chain_len_out = chain;
    return SpillToStash(key, value, ev, chain);
  }

  /// Breadth-first search for the shortest cuckoo path [3] (single-slot
  /// table only, so bucket index = slot index), driven by the shared
  /// BfsFindPath engine (src/core/eviction.h): explore the eviction tree
  /// level by level until an empty bucket appears, then shift the items
  /// along the path *backwards* (empty end first) so no item is ever
  /// absent from the table. The baseline has no counters, so the only
  /// terminal is a true hole and every child check costs a charged bucket
  /// read; a local visited mirror keeps each bucket read at most once.
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
  InsertResult BfsInsert(Key key, Value value, const Candidates& cand,
                         uint32_t* chain_len_out, uint32_t* nodes_out) {
    static_assert(!kBlocked, "BFS eviction is single-slot only");
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
          const Key occupant = slots_[bucket].key;  // read earlier
          const Candidates alt = ComputeCandidates(occupant);
          for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
            if (alt[t] == bucket) continue;
            if (!mark_new(alt[t])) continue;
            if (FreeSlotIn(alt[t]) != kNoSlot) {
              terminal(alt[t]);
              return;
            }
            emit(alt[t]);
          }
        });
    bfs_throttle_.Observe(path.found);
    *nodes_out = path.nodes_expanded;
    KickChainEvent ev{};
    if (!path.found) {
      // Node budget exhausted without finding an empty bucket.
      *chain_len_out = 0;
      return SpillToStash(key, value, ev, /*chain=*/0);
    }
    // Move items from the empty end backwards.
    size_t hole = static_cast<size_t>(path.terminal);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      Store(hole, slots_[src].key, slots_[src].value);
      ++stats_->kickouts;
      if constexpr (kMetricsEnabled) {
        if (i < kMaxTraceSteps) {
          // No copy counters in the baselines: record counter 0.
          ev.step[i] = KickStep{static_cast<uint64_t>(src), 0};
        }
      }
      hole = src;
    }
    Store(hole, key, value);
    ++size_;
    const uint32_t chain = static_cast<uint32_t>(path.node.size());
    *chain_len_out = chain;
    TraceChain(ev, chain, /*stashed=*/false);
    return InsertResult::kInserted;
  }

  TableOptions opts_;
  HashFamily<Key, Hasher> family_;
  std::vector<Slot> slots_;
  // Heap-allocated so the pointer handed to KickHistory stays valid when
  // the table is moved (factory returns).
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

// The two public names are classes rather than alias templates so that
// they stay the names the types print under (test names, diagnostics).

/// Standard d-ary Cuckoo, the paper's first baseline: one slot per bucket,
/// random-walk (or MinCounter, bubbling, BFS) insertion.
template <typename Key, typename Value, typename Hasher>
class CuckooTable : public BaselineCuckooTable<Key, Value, Hasher, false> {
 public:
  using BaselineCuckooTable<Key, Value, Hasher, false>::BaselineCuckooTable;
};

/// Blocked Cuckoo Hash Table, the paper's second baseline [18]: l >= 2
/// slots per bucket, eviction of a random slot of the victim bucket.
template <typename Key, typename Value, typename Hasher>
class BchtTable : public BaselineCuckooTable<Key, Value, Hasher, true> {
 public:
  using BaselineCuckooTable<Key, Value, Hasher, true>::BaselineCuckooTable;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_BASELINE_CUCKOO_TABLE_H_
