// The chassis both McCuckoo tables are built on.
//
// McCuckooTable (one slot per bucket) and BlockedMcCuckooTable (l slots per
// bucket, §III.G) differ only in their layout: how a bucket holds its
// records, counters and stash flag, how a key's candidates are probed
// (Algorithm 2) and how an insert places copies and evicts (Algorithm 1,
// the random walk, BFS). Everything around that is one design — the same
// stash and its §III.E/F screen upkeep, the same rehash remedy (§I.2) and
// growth policy, the same seqlock writer discipline and the same metrics —
// and is written here once, as a CRTP base over the table type. Scans run
// over (bucket, slot) pairs, slot index = bucket * l + slot, with l = 1 for
// the single-slot table.
//
// The table befriends its chassis and provides:
//  * layout: num_buckets() (the size of its bucket storage), SlotAt(slot
//    index) (a record with .key and .value), counters_ (PeekCounter,
//    PeekTombstone, PeekTag, counter_bytes per slot index) and kTagMask
//    (the fingerprint bits its headers keep);
//  * stash flags: FlagAt(bucket), SetFlag(bucket) (charged, stripe opened)
//    and ClearStashFlags() (one charged write per flag cleared);
//  * lookup: StageCandidates and ProbeMain over the chassis' Candidates
//    (Algorithm 2 plus the stash screen; on a hit the write paths get a
//    Position), AssignCopies and EraseCopies over every copy of a hit;
//  * insertion: TryPlace, RandomWalkInsert and BfsInsert;
//  * rehash: AdoptStorage(rebuilt, retire), which swaps the rebuilt
//    storage in and, with a seqlock attached, keeps the replaced storage
//    alive for lagging optimistic readers;
//  * CheckLayout(options) (its slots_per_bucket rule) and kName.

#ifndef MCCUCKOO_CORE_TABLE_CHASSIS_H_
#define MCCUCKOO_CORE_TABLE_CHASSIS_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/core/stash.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/heatmap.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/span_recorder.h"
#include "src/obs/trace_recorder.h"

namespace mccuckoo {

template <typename Derived, typename Key, typename Value, typename Hasher>
class McCuckooChassis {
 public:
  /// Exposed template parameters (used by wrappers/adapters).
  using KeyType = Key;
  using ValueType = Value;

  /// The configuration conditions Create() reports as Status. The
  /// constructor enforces the same conditions with an unconditional abort,
  /// so Debug and Release builds agree on what direct construction with
  /// unsupported options does.
  static Status CheckOptions(const TableOptions& options) {
    if (Status s = options.Validate(); !s.ok()) return s;
    return Derived::CheckLayout(options);
  }

  /// Validating factory for untrusted configuration.
  static Result<Derived> Create(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) return s;
    return Derived(options);
  }

  // --- Core operations -------------------------------------------------

  /// Inserts a key assumed not to be present (the common case in the
  /// paper's workloads; duplicate keys corrupt the copy invariants — use
  /// InsertOrAssign when presence is unknown).
  InsertResult Insert(const Key& key, const Value& value) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    return InsertWithCandidates(key, value, ComputeCandidates(key));
  }

  /// Inserts or, if the key exists (main table or stash), updates every
  /// copy of it.
  InsertResult InsertOrAssign(const Key& key, const Value& value) {
    NoLookupMetrics no_metrics;
    typename Derived::Position hit;
    const ProbeOutcome o = self().ProbeMain(key, ComputeCandidates(key),
                                            nullptr, Charged(), no_metrics,
                                            &hit);
    if (o == ProbeOutcome::kHit) {
      self().AssignCopies(key, value, hit);
      SeqFlush();
      return InsertResult::kUpdated;
    }
    if (o == ProbeOutcome::kCheckStash) {
      Charged().StashProbe();
      const bool in_stash = stash_.Find(key, nullptr);
      metrics_->RecordStashProbe(in_stash);
      if (in_stash) {
        Charged().StashWrite();
        SeqOpenAux();
        stash_.Insert(key, value);
        SeqFlush();
        return InsertResult::kUpdated;
      }
    }
    return Insert(key, value);
  }

  /// Looks `key` up; writes the value through `out` when found (out may be
  /// null). Mutates only the access statistics.
  bool Find(const Key& key, Value* out = nullptr) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFind);
    return LookupOne(key, out, Charged());
  }

  /// Convenience wrapper over Find.
  bool Contains(const Key& key) const { return Find(key, nullptr); }

  /// Statistics-free const lookup: Find's probe body without the
  /// AccessStats charges, so it performs no mutation whatsoever (its hits,
  /// values and lookup metrics are Find's). This is ShardedMcCuckoo's
  /// kLocked read path — many readers may call it under a shard's shared
  /// lock while a writer is excluded (see src/core/sharded_mccuckoo.h). Not
  /// meant for experiments: it records no access counts.
  bool FindNoStats(const Key& key, Value* out = nullptr) const {
    return LookupOne(key, out, NoCharge{});
  }

  /// Deletes `key`. Requires a deletion-enabled mode; in multi-copy tables
  /// this performs zero off-chip writes (only counters change, §III.B.3).
  bool Erase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    RequireDeletion("Erase");
    NoLookupMetrics no_metrics;
    typename Derived::Position hit;
    const ProbeOutcome o = self().ProbeMain(key, ComputeCandidates(key),
                                            nullptr, Charged(), no_metrics,
                                            &hit);
    if (o == ProbeOutcome::kHit) {
      self().EraseCopies(key, hit);
      --size_;
      SeqFlush();
      metrics_->RecordErase();
      return true;
    }
    if (o == ProbeOutcome::kCheckStash) {
      Charged().StashProbe();
      SeqOpenAux();
      const bool hit_stash = stash_.Erase(key);
      SeqFlush();
      metrics_->RecordStashProbe(hit_stash);
      if (hit_stash) {
        Charged().StashWrite();
        // Flags are Bloom-like and not cleared (§III.F); false positives
        // accumulate until RebuildStashFlags().
        ++stale_stash_flag_keys_;
        metrics_->RecordErase();
        return true;
      }
    }
    return false;
  }

  // --- Batched operations (software-pipelined) ---------------------------
  //
  // The scalar operations above issue one dependent miss chain per key:
  // hash -> counter word -> candidate bucket. The batched variants break
  // the chain in two stages per tile of up to kBatchTile keys: stage 1
  // (the table's StageCandidates) hashes every key and prefetches all
  // candidate buckets and their on-chip counter words; stage 2 replays the
  // *unchanged* scalar per-key logic against now-warm lines. The probe
  // rules, stash screening and AccessStats accounting are bit-identical to
  // a scalar loop over the same keys (differential-tested) — prefetching
  // only hides latency, it never reads for the algorithm.

  /// Internal pipeline depth: tiles bound the candidate scratch space and
  /// keep the prefetch distance within what outstanding-miss buffers cover.
  /// The bound is an L1 budget, not a miss-buffer one: a tile touches
  /// d lines per key (bucket + its counter word, which usually share a
  /// set), so at d = 3 a 64-key tile stages ~64 * 3 * 2 * 64B = 24 KB —
  /// most of a 32 KB L1d — and by the time stage 2 replays key 0 its lines
  /// have been evicted by keys 40+ (the batch64/batch32 load95 regression).
  /// 16 keys * 3 candidates * 2 lines = 6 KB leaves room for the probe
  /// loop's own working set, and 48 outstanding prefetches still cover the
  /// ~10 line-fill buffers of current cores. A blocked bucket spans
  /// l * sizeof(Slot) bytes (several lines), which makes large tiles worse.
  static constexpr size_t kBatchTile = 16;

  /// Batched lookup. For key i, found[i] is set and, on a hit, out[i]
  /// receives the value (out may be null; found must not be). Returns the
  /// number of keys found. Equivalent to calling Find per key, in order.
  size_t FindBatch(std::span<const Key> keys, Value* out, bool* found) const {
    return LookupBatch(keys, out, found, Charged());
  }

  /// Batched membership test: FindBatch without value extraction.
  size_t ContainsBatch(std::span<const Key> keys, bool* found) const {
    return FindBatch(keys, nullptr, found);
  }

  /// Batched mutation-free lookup (the sharded/concurrent reader path):
  /// equivalent to calling FindNoStats per key, in order.
  size_t FindBatchNoStats(std::span<const Key> keys, Value* out,
                          bool* found) const {
    return LookupBatch(keys, out, found, NoCharge{});
  }

  /// Batched insertion of keys assumed not to be present; results[i] (when
  /// results is non-null) receives the per-key outcome. Equivalent to
  /// calling Insert per key, in order — kick-out chains and stash spills
  /// behave exactly as in the scalar path.
  void InsertBatch(std::span<const Key> keys, std::span<const Value> values,
                   InsertResult* results = nullptr) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsertBatch);
    assert(keys.size() == values.size());
    std::array<Candidates, kBatchTile> cand;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      self().StageCandidates(&keys[base], n, cand.data(), /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t epoch = rehash_epoch_;
        const InsertResult r =
            InsertWithCandidates(keys[base + i], values[base + i], cand[i]);
        if (results != nullptr) results[base + i] = r;
        // An auto-growth rehash inside the insert replaced the geometry
        // and hash seeds; the remaining staged candidates were computed
        // against the old ones and must be re-derived.
        if (rehash_epoch_ != epoch && i + 1 < n) {
          self().StageCandidates(&keys[base + i + 1], n - i - 1,
                                 &cand[i + 1], /*for_write=*/true);
        }
      }
    }
  }

  // --- Optimistic (seqlock-validated) read path --------------------------

  /// Attaches (or, with null, detaches) the seqlock version array the
  /// concurrent wrapper owns. While attached, every mutation opens the
  /// stripes of the buckets it touches (odd version = in flight) and
  /// publishes them at its commit point; TryFindOptimistic can then run
  /// without any lock. Single-threaded users never call this and pay only
  /// a null check per mutation choke point.
  void AttachSeqlock(SeqlockArray* seq) { seq_ = seq; }

  /// Sizing hint for the version array: one potential stripe per bucket.
  size_t seqlock_domain() const { return self().num_buckets(); }

  /// Lock-free lookup attempt (the ValidatedLookup protocol of seqlock.h
  /// over the uncharged probe): records the versions of the candidate
  /// stripes plus the aux stripe covering the stash and the geometry, and
  /// only reports a result if every recorded version was even and unchanged
  /// afterwards. Any writer overlap yields kContended (the caller retries);
  /// a validated probe that needs the stash yields kNeedsStash (the caller
  /// takes its locked path at once). Metrics are published only with
  /// kHit/kMiss — the locked path records the lookup otherwise. Not
  /// latency-sampled: the wrapper's Find samples the whole read, retries
  /// and fallback included. Requires an attached SeqlockArray.
  OptimisticResult TryFindOptimistic(const Key& key,
                                     Value* out = nullptr) const {
    const ValidatedResult r = Validated<1, LookupRecord>(
        std::span<const Key>(&key, 1), out, nullptr,
        [&](auto* cand) { cand[0] = ComputeCandidates(key); });
    return r.result == OptimisticResult::kHit && r.hits == 0
               ? OptimisticResult::kMiss
               : r.result;
  }

  /// All-or-nothing optimistic batch lookup over one tile (keys.size() <=
  /// kBatchTile): stages prefetches, records the versions of every touched
  /// stripe, probes all keys, then validates once. Returns kHit with
  /// out/found filled and the hit count in *hits; kContended if any stripe
  /// was (or became) active; kNeedsStash if the validated tile has a key
  /// that needs the stash — the caller re-runs the tile under the lock.
  OptimisticResult TryFindBatchOptimistic(std::span<const Key> keys,
                                          Value* out, bool* found,
                                          size_t* hits) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    const ValidatedResult r = Validated<kBatchTile, LookupTally>(
        keys, out, found, [&](auto* cand) {
          self().StageCandidates(keys.data(), keys.size(), cand,
                                 /*for_write=*/false);
        });
    *hits = r.hits;
    return r.result;
  }

  // --- Rehash (§I.2) -----------------------------------------------------

  /// Full rehash into a table of `new_buckets_per_table` buckets per
  /// sub-table under a fresh hash family seeded by `new_seed` — the costly
  /// remedy for insertion failures that the stash exists to avoid (§I.2),
  /// provided for completeness and for growing a long-lived table. Reads
  /// out every live item (charged: one read per old bucket and per stashed
  /// item, plus the re-insertion traffic) and rebuilds. Fails without
  /// touching the table if the new capacity cannot hold the current items.
  Status Rehash(uint64_t new_buckets_per_table, uint64_t new_seed) {
    const uint64_t t0 = MetricsNowNs();
    TableOptions new_opts = opts_;
    new_opts.buckets_per_table = new_buckets_per_table;
    new_opts.seed = new_seed;
    Status s = new_opts.Validate();
    if (!s.ok()) return s;
    if (new_opts.capacity() < TotalItems()) {
      return Status::InvalidArgument(
          "rehash target smaller than the current item count");
    }
    // "Reading out all inserted items and using a different set of hash
    // functions to put them into a bigger table" (§I.2).
    stats_->offchip_reads += self().num_buckets() + stash_.size();
    std::vector<std::pair<Key, Value>> items;
    items.reserve(TotalItems());
    ForEachItem(
        [&](const Key& k, const Value& v) { items.emplace_back(k, v); });

    // The rebuild runs with growth disabled: a re-insertion overflow must
    // not recursively rehash the table being built. The caller-visible
    // growth config is restored onto the rebuilt options before commit.
    TableOptions build_opts = new_opts;
    build_opts.growth.enabled = false;
    Derived rebuilt(build_opts);
    for (const auto& [k, v] : items) rebuilt.Insert(k, v);
    rebuilt.opts_.growth = new_opts.growth;
    // Discard any degraded-state signal the growth-disabled rebuild
    // raised; the live policy re-evaluates pressure after the commit.
    rebuilt.metrics_->SetGrowthSuppressed(false);
    // Keep lifetime counters across the rebuild.
    rebuilt.redundant_writes_ += redundant_writes_;
    rebuilt.first_collision_items_ = first_collision_items_;
    rebuilt.first_failure_items_ = first_failure_items_;
    // The attached version array survives the rebuild (its mask mapping is
    // size-independent); the commit reallocates every bucket, so it runs
    // under the aux stripe to invalidate in-flight optimistic reads. The
    // concurrent wrappers' exclusive sections already hold the aux stripe
    // open around the whole call; only open it here when no outer writer
    // does, so the stripe stays odd through the commit either way
    // (WriteBegin is a blind increment — double-opening would flip it even).
    SeqlockArray* seq = seq_;
    const bool open_aux =
        seq != nullptr &&
        !SeqlockArray::IsWriting(seq->Version(seq->aux_stripe()));
    if (open_aux) seq->WriteBegin(seq->aux_stripe());
    CommitRebuild(rebuilt);
    if (open_aux) seq->WriteEnd(seq->aux_stripe());
    metrics_->RecordRehash(MetricsNowNs() - t0);
    spans_.Record(SpanKind::kRehash, t0, MetricsNowNs(), items.size());
    return Status::OK();
  }

  // --- Stash maintenance (§III.E/F) -------------------------------------

  /// Attempts to move stashed items back into the main table (no new
  /// kick-out chains are started: only free/redundant slots are used).
  /// Returns how many items left the stash. Flags are left set (sticky).
  size_t TryDrainStash() {
    size_t drained = 0;
    for (const auto& [k, v] : stash_.Items()) {
      if (self().TryPlace(k, v, ComputeCandidates(k)) > 0) {
        SeqOpenAux();
        stash_.Erase(k);
        Charged().StashWrite();
        ++size_;
        ++drained;
      }
      SeqFlush();  // per item: slot copies and stash removal together
    }
    return drained;
  }

  /// Resets every stash flag and re-marks the candidates of the items
  /// currently stashed, re-synchronizing the screen after stash deletions
  /// (§III.F). Charges one off-chip write per flag cleared and per flag
  /// re-set. Cleared and re-set flags publish together: a reader
  /// validating between the clear and the re-mark would false-miss a
  /// stashed key.
  void RebuildStashFlags() {
    self().ClearStashFlags();
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      const auto cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        self().SetFlag(cand.idx[t]);
      }
    }
    stale_stash_flag_keys_ = 0;
    SeqFlush();
  }

  // --- Introspection ----------------------------------------------------

  /// Live keys resident in the main table (excludes the stash).
  size_t size() const { return size_; }

  /// Keys currently parked in the stash.
  size_t stash_size() const { return stash_.size(); }

  /// Live keys anywhere (main table + stash).
  size_t TotalItems() const { return size_ + stash_.size(); }

  /// Total slots (= key capacity).
  uint64_t capacity() const {
    return self().num_buckets() * opts_.slots_per_bucket;
  }

  /// Distinct-items-to-slots ratio, the paper's "load ratio".
  double load_factor() const {
    return static_cast<double>(TotalItems()) / static_cast<double>(capacity());
  }

  const TableOptions& options() const { return opts_; }
  const AccessStats& stats() const { return *stats_; }
  void ResetStats() { *stats_ = AccessStats{}; }

  /// Point-in-time metrics copy with the occupancy/capacity gauges filled
  /// (all zeros under -DMCCUCKOO_NO_METRICS). Safe to call concurrently
  /// with readers; pair with writer exclusion for exact totals.
  MetricsSnapshot SnapshotMetrics() const {
    MetricsSnapshot s = metrics_->Snapshot();
    s.occupancy_items = TotalItems();
    s.capacity_slots = capacity();
    latency_->FoldInto(&s);
    for (size_t k = 0; k < kSpanKinds; ++k) {
      s.span_counts[k] += spans_.Totals()[k];
    }
    return s;
  }

  /// Clears the metrics, the kick-chain trace ring, the latency samples,
  /// and the span ring (AccessStats are separate; see ResetStats).
  void ResetMetrics() {
    metrics_->Reset();
    trace_.Clear();
    latency_->Reset();
    spans_.Clear();
  }

  /// Kick-chain trace ring (post-mortem inspection of recent chains).
  const TraceRecorder& trace() const { return trace_; }

  /// Span timeline ring (growth/rehash/reseed/dead-end/spill events) —
  /// feed Events() to ExportChromeTrace for a chrome://tracing view.
  const SpanRecorder& spans() const { return spans_; }

  /// Sampled op-latency recorder (configure via
  /// TableOptions::latency_sample_period or set_sample_period).
  LatencyRecorder& latency() const { return *latency_; }

  /// The live metric cells (the concurrent wrappers record their
  /// optimistic-read retries and fallbacks here).
  TableMetrics& metrics() const { return *metrics_; }

  /// Scans the table into an occupancy/counter heatmap at the requested
  /// region resolution (full-table scan; scrape-time cost only). Regions
  /// are runs of whole buckets; counter_values counts slots by counter
  /// value.
  HeatmapSnapshot Heatmap(size_t regions = 64) const {
    HeatmapSnapshot h;
    const size_t buckets = self().num_buckets();
    const uint32_t l = opts_.slots_per_bucket;
    if (regions == 0) regions = 1;
    if (regions > buckets) regions = buckets;
    h.region_occupied.assign(regions, 0);
    h.region_slots.assign(regions, 0);
    h.total_buckets = buckets;
    h.total_slots = capacity();
    const size_t per_region = (buckets + regions - 1) / regions;
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      const size_t region = bucket / per_region;
      h.region_slots[region] += l;
      for (uint32_t slot = 0; slot < l; ++slot) {
        const uint64_t c = self().counters_.PeekCounter(bucket * l + slot);
        const size_t cv = c < kMetricsPartitions ? c : kMetricsPartitions - 1;
        ++h.counter_values[cv];
        if (c != 0) {
          ++h.region_occupied[region];
          ++h.occupied_slots;
        }
      }
    }
    return h;
  }

  /// Items present when the first real collision happened (0 = none yet) —
  /// Table I's metric.
  uint64_t first_collision_items() const { return first_collision_items_; }

  /// Items present when the first insertion failure (stash spill) happened
  /// (0 = none yet) — Fig 11's metric.
  uint64_t first_failure_items() const { return first_failure_items_; }

  /// Total proactive redundant copy writes so far (copies beyond each
  /// item's first). Theorem 2 bounds this by capacity * (1 + sum_{t=3..d}
  /// 1/t); for d = 3: 5/6 of the bucket count.
  uint64_t redundant_writes() const { return redundant_writes_; }

  /// Keys erased from the stash whose flags are now stale (false-positive
  /// pressure on the screen; see RebuildStashFlags).
  uint64_t stale_stash_flag_keys() const { return stale_stash_flag_keys_; }

  /// Times a CHS-style on-chip stash exceeded its capacity — events where a
  /// real deployment would have had to rehash (§II.B).
  uint64_t forced_rehash_events() const { return forced_rehash_events_; }

  /// Bytes of modeled on-chip memory (copy counters, plus MinCounter's
  /// kick-history array when that policy is active).
  size_t onchip_memory_bytes() const {
    return self().counters_.counter_bytes() + kick_history_.memory_bytes();
  }

  /// Invokes `fn(key, value)` once per live key (main table + stash), in
  /// unspecified order. Uncharged maintenance path.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    std::unordered_map<Key, bool> seen;
    for (size_t idx = 0; idx < capacity(); ++idx) {
      if (self().counters_.PeekCounter(idx) == 0) continue;
      const auto& r = self().SlotAt(idx);
      if (seen.emplace(r.key, true).second) fn(r.key, r.value);
    }
    for (const auto& [k, v] : stash_.Items()) fn(k, v);
  }

  /// Number of live copies of `key` in the main table (uncharged; testing).
  uint32_t CountCopies(const Key& key) const {
    const auto cand = ComputeCandidates(key);
    const uint32_t l = opts_.slots_per_bucket;
    uint32_t copies = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        const size_t idx = cand.idx[t] * l + s;
        if (self().counters_.PeekCounter(idx) > 0 &&
            self().SlotAt(idx).key == key) {
          ++copies;
        }
      }
    }
    return copies;
  }

  /// Exhaustively checks the structural invariants (uncharged; testing):
  /// every live slot's occupant hashes to its bucket and carries its
  /// fingerprint; a key has at most one copy per bucket, all copies are
  /// identical and every copy's counter equals the key's copy count;
  /// tombstones only exist in kTombstone mode, with a zero counter.
  Status ValidateInvariants() const {
    const auto& counters = self().counters_;
    const uint64_t nb = opts_.buckets_per_table;
    const uint32_t l = opts_.slots_per_bucket;
    std::unordered_map<Key, std::vector<size_t>> copies;
    for (size_t idx = 0; idx < capacity(); ++idx) {
      const uint64_t c = counters.PeekCounter(idx);
      if (counters.PeekTombstone(idx)) {
        if (opts_.deletion_mode != DeletionMode::kTombstone) {
          return Status::Internal("tombstone outside kTombstone mode at " +
                                  std::to_string(idx));
        }
        if (c != 0) {
          return Status::Internal("tombstone with non-zero counter at " +
                                  std::to_string(idx));
        }
        continue;
      }
      if (c == 0) continue;
      if (c > opts_.num_hashes) {
        return Status::Internal("counter exceeds d at " + std::to_string(idx));
      }
      const Key& k = self().SlotAt(idx).key;
      const size_t bucket = idx / l;
      if (family_.Bucket(k, static_cast<uint32_t>(bucket / nb)) !=
          bucket % nb) {
        return Status::Internal("occupant does not hash to bucket " +
                                std::to_string(idx));
      }
      // The probe relies on a fingerprint mismatch proving a different key.
      if (counters.PeekTag(idx) != (family_.TagOf(k) & Derived::kTagMask)) {
        return Status::Internal("stale fingerprint at " + std::to_string(idx));
      }
      copies[k].push_back(idx);
    }
    for (const auto& [k, positions] : copies) {
      std::vector<size_t> buckets;
      for (size_t idx : positions) buckets.push_back(idx / l);
      std::sort(buckets.begin(), buckets.end());
      if (std::adjacent_find(buckets.begin(), buckets.end()) !=
          buckets.end()) {
        return Status::Internal("two copies of one key in one bucket");
      }
      for (size_t idx : positions) {
        if (counters.PeekCounter(idx) != positions.size()) {
          return Status::Internal("counter != copy count at " +
                                  std::to_string(idx));
        }
        if (!(self().SlotAt(idx).value ==
              self().SlotAt(positions.front()).value)) {
          return Status::Internal("diverged copy values for a key");
        }
      }
    }
    if (copies.size() != size_) {
      return Status::Internal("size_ does not match live distinct keys: " +
                              std::to_string(size_) + " vs " +
                              std::to_string(copies.size()));
    }
    return Status::OK();
  }

  /// Debug-build deep check for the chaos/property harnesses:
  /// ValidateInvariants plus the stash-screen rule that every stashed
  /// key's candidate buckets carry the stash flag (flags may be stale-set
  /// — they are sticky by design — but never missing). Compiles to an
  /// unconditional OK in NDEBUG builds so release benchmarks can keep the
  /// call sites.
  Status CheckInvariants() const {
#ifdef NDEBUG
    return Status::OK();
#else
    if (Status s = ValidateInvariants(); !s.ok()) return s;
    if (opts_.stash_kind != StashKind::kOffchip) return Status::OK();
    const uint32_t l = opts_.slots_per_bucket;
    for (const auto& [k, v] : stash_.Items()) {
      (void)v;
      const auto cand = ComputeCandidates(k);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        const size_t bucket = cand.idx[t];
        if (!self().FlagAt(bucket)) {
          return Status::Internal(
              "stashed key lacks a candidate stash flag at bucket " +
              std::to_string(bucket));
        }
        // Without deletions the screen additionally relies on every
        // stashed key's candidates holding sole copies forever: the key
        // was stashed only after TryPlace saw all-ones, and a counter-1
        // slot can never fall to 0 nor climb past 1 again.
        if (opts_.deletion_mode != DeletionMode::kDisabled) continue;
        for (uint32_t s = 0; s < l; ++s) {
          const uint64_t c = self().counters_.PeekCounter(bucket * l + s);
          if (c != 1) {
            return Status::Internal(
                "stashed key candidate bucket " + std::to_string(bucket) +
                " slot " + std::to_string(s) + " has counter " +
                std::to_string(c) +
                " != 1 under kDisabled; the stash screen would veto lookups");
          }
        }
      }
    }
    return Status::OK();
#endif
  }

  /// Read-only view of the auto-growth state machine.
  const GrowthPolicy& growth_policy() const { return growth_; }

  /// Completed rehash commits over this table's lifetime (manual and
  /// growth-triggered). Changes exactly when the geometry/seeds may have;
  /// batch paths use it to detect a mid-batch geometry change.
  uint64_t rehash_epoch() const { return rehash_epoch_; }

 protected:
  /// The d global bucket indices of a key (index = t * buckets_per_table +
  /// h_t(key); distinct across sub-tables by construction), plus the key's
  /// 8-bit fingerprint (derived for free from the same hash evaluation;
  /// the table's headers keep its low bits for probe screening).
  struct Candidates {
    std::array<size_t, kMaxHashes> idx;
    uint8_t tag = 0;
  };

  /// Builds the shared state; the table constructs its storage after.
  /// Aborts on options that fail CheckOptions (use Create() for untrusted
  /// configuration). `rng_salt` decorrelates the tables' eviction RNGs.
  McCuckooChassis(const TableOptions& options, uint64_t rng_salt)
      : growth_(options.growth),
        rng_(SplitMix64(options.seed ^ rng_salt)),
        opts_(Checked(options)),
        family_(options.num_hashes, options.buckets_per_table, options.seed) {
    if (options.eviction_policy == EvictionPolicy::kMinCounter) {
      kick_history_ = KickHistory(
          static_cast<size_t>(options.num_hashes) * options.buckets_per_table,
          options.kick_counter_bits, stats_.get());
    }
    latency_->set_sample_period(options.latency_sample_period);
  }

  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  Candidates ComputeCandidates(const Key& key) const {
    Candidates c{};
    const std::array<uint64_t, kMaxHashes> b = family_.Buckets(key, &c.tag);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      c.idx[t] = static_cast<size_t>(t) * opts_.buckets_per_table + b[t];
    }
    return c;
  }

  /// Aborts unless the table was built with a deletion-enabled mode.
  void RequireDeletion(const char* op) const {
    if (opts_.deletion_mode != DeletionMode::kDisabled) return;
    std::fprintf(stderr,
                 "%s::%s called with DeletionMode::kDisabled; construct the "
                 "table with kResetCounters or kTombstone\n",
                 Derived::kName, op);
    std::abort();
  }

  /// The AccessStats sink of the paper-model paths. A stash probe or write
  /// is an off-chip access for the paper's off-chip stash, an on-chip one
  /// for the classic CHS stash.
  StatsCharge Charged() const {
    return {stats_.get(), opts_.stash_kind == StashKind::kOffchip};
  }

  // --- seqlock writer hooks ---------------------------------------------
  //
  // Every reader-visible mutation flows through the choke points below,
  // which mark the touched bucket's stripe as in-flight (odd). Stripes stay
  // odd across the *whole* operation — a kick chain's intermediate states
  // have the in-hand key in no bucket at all, so publishing per-store would
  // let an optimistic reader validate cleanly and miss a live key — and are
  // published together by SeqFlush() at each operation's consistent point.
  // Stripes cover whole buckets. All three are no-ops when no SeqlockArray
  // is attached.

  void SeqOpen(size_t bucket) {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->StripeOf(bucket));
  }

  /// Opens the aux stripe covering state outside the bucket array (stash
  /// membership and size, geometry).
  void SeqOpenAux() {
    if (seq_ != nullptr) seq_open_.Open(*seq_, seq_->aux_stripe());
  }

  void SeqFlush() {
    if (seq_ != nullptr) seq_open_.CloseAll(*seq_);
  }

  /// Scalar Insert body over precomputed candidates: the table's TryPlace,
  /// then on a real collision (every candidate a sole copy, §III.D) its
  /// BFS or random walk, then the growth policy.
  InsertResult InsertWithCandidates(const Key& key, const Value& value,
                                    const Candidates& cand) {
    const uint64_t t0 = MetricsNowNs();
    const uint32_t placed = self().TryPlace(key, value, cand);
    if (placed > 0) {
      ++size_;
      SeqFlush();
      metrics_->RecordInsert(/*chain_len=*/0, MetricsNowNs() - t0);
      growth_.ObserveInsert(/*overflowed=*/false, 0, opts_.maxloop);
      MaybeGrow();
      return InsertResult::kInserted;
    }
    if (first_collision_items_ == 0) {
      first_collision_items_ = TotalItems() + 1;
    }
    const bool bfs = opts_.eviction_policy == EvictionPolicy::kBfs;
    uint32_t chain_len = 0;
    uint32_t bfs_nodes = 0;
    uint32_t bfs_budget = 0;
    const InsertResult r =
        bfs ? self().BfsInsert(key, value, cand, &chain_len, &bfs_nodes,
                               &bfs_budget)
            : self().RandomWalkInsert(key, value, &chain_len);
    // The whole chain published at once: at no intermediate state was the
    // in-hand key absent from a stripe readers could have validated.
    SeqFlush();
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    metrics_->RecordPolicyChain(
        static_cast<uint32_t>(opts_.eviction_policy), chain_len);
    if (bfs) metrics_->RecordBfsNodes(bfs_nodes);
    growth_.ObserveInsert(r != InsertResult::kInserted, chain_len,
                          opts_.maxloop, bfs_nodes, bfs_budget);
    MaybeGrow();
    return r;
  }

  /// Runs the growth policy against the post-insert occupancy and performs
  /// the rehash it asks for. Called with no stripes open (SeqFlush done):
  /// Rehash opens the aux stripe itself when the outer writer section does
  /// not already hold it, so optimistic readers stay correct whether the
  /// trigger fires inside a concurrent wrapper's Insert or a bare table.
  void MaybeGrow() {
    const GrowthDecision d = growth_.Decide(
        {TotalItems(), opts_.capacity(), stash_.size(),
         opts_.buckets_per_table});
    if (d.action == GrowthAction::kNone) return;
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return;
    }
    Status s;
    const uint64_t grow_t0 = MetricsNowNs();
    try {
      s = Rehash(d.new_buckets_per_table, growth_.NextSeed(opts_.seed));
    } catch (const std::bad_alloc&) {
      // Graceful degradation: the table is untouched (the rebuild never
      // reached its commit), inserts keep landing in the stash.
      s = Status::ResourceExhausted("auto-growth allocation failed");
    }
    if (s.ok()) {
      growth_.OnRehashSuccess(d.action);
      metrics_->RecordGrowthRehash(d.action == GrowthAction::kReseed);
      metrics_->SetGrowthSuppressed(false);
      spans_.Record(d.action == GrowthAction::kReseed ? SpanKind::kReseed
                                                      : SpanKind::kGrowth,
                    grow_t0, MetricsNowNs(), d.new_buckets_per_table);
    } else {
      growth_.OnRehashFailure();
      metrics_->RecordGrowthFailure();
      metrics_->SetGrowthSuppressed(true);
    }
  }

  /// Shared insertion-failure tail: parks the in-hand item in the stash
  /// (flags set for the off-chip kind, forced-rehash accounting for the
  /// on-chip kind). The caller guarantees the item's candidate slots all
  /// hold sole copies — the all-ones precondition the kDisabled stash
  /// screen relies on — and records its own trace event.
  InsertResult StashOverflow(const Key& key, const Value& value) {
    if (first_failure_items_ == 0) first_failure_items_ = TotalItems() + 1;
    Charged().StashWrite();
    SeqOpenAux();
    stash_.Insert(key, value);
    spans_.RecordInstant(SpanKind::kStashSpill, stash_.size());
    if (opts_.stash_kind == StashKind::kOffchip) {
      const auto cand = ComputeCandidates(key);
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        self().SetFlag(cand.idx[t]);
      }
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      ++forced_rehash_events_;  // a real CHS deployment would rehash here
    }
    return opts_.stash_enabled ? InsertResult::kStashed : InsertResult::kFailed;
  }

 private:
  static const TableOptions& Checked(const TableOptions& options) {
    if (Status s = CheckOptions(options); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", Derived::kName, s.message().c_str());
      std::abort();
    }
    return options;
  }

  // --- lookup entry points ------------------------------------------------
  //
  // The table defines its lookup once, as ProbeMain (Algorithm 2's probe
  // ending in the §III.E/F stash screen). Everything around it is written
  // here: the scalar and batched lookups (charged or not), the stash step
  // after a kCheckStash probe, and the adapter that runs the probe under
  // the seqlock read protocol of seqlock.h.

  /// Find and FindNoStats: the lookup over one key's candidates, its
  /// metrics recorded on the stack and published once.
  template <typename Charge>
  bool LookupOne(const Key& key, Value* out, Charge charge) const {
    LookupRecord rec;
    const bool hit =
        Lookup(key, ComputeCandidates(key), out, charge, rec);
    rec.FlushTo(*metrics_);
    return hit;
  }

  /// FindBatch and FindBatchNoStats. Lookup metrics accumulate on the
  /// stack and publish once per batch: same totals as per-key recording, a
  /// fraction of the atomic RMWs.
  template <typename Charge>
  size_t LookupBatch(std::span<const Key> keys, Value* out, bool* found,
                     Charge charge) const {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kFindBatch);
    size_t hits = 0;
    std::array<Candidates, kBatchTile> cand;
    LookupTally tally;
    for (size_t base = 0; base < keys.size(); base += kBatchTile) {
      const size_t n = std::min(kBatchTile, keys.size() - base);
      self().StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit =
            Lookup(keys[base + i], cand[i],
                   out != nullptr ? &out[base + i] : nullptr, charge, tally);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    tally.FlushTo(*metrics_);
    return hits;
  }

  /// A whole lookup over precomputed candidates: the main-table probe plus,
  /// when the stash screen allows it, the stash probe.
  template <typename Charge, typename Sink>
  bool Lookup(const Key& key, const Candidates& cand, Value* out,
              Charge charge, Sink& sink) const {
    switch (self().ProbeMain(key, cand, out, charge, sink)) {
      case ProbeOutcome::kHit:
        return true;
      case ProbeOutcome::kMiss:
        return false;
      case ProbeOutcome::kCheckStash:
        break;
    }
    charge.StashProbe();
    const bool hit = stash_.Find(key, out);
    sink.RecordStashProbe(hit);
    return hit;
  }

  /// ValidatedLookup over the uncharged probe, with `stage` computing the
  /// keys' candidates.
  template <size_t kMaxKeys, typename Sink, typename Stage>
  ValidatedResult Validated(std::span<const Key> keys, Value* out, bool* found,
                            Stage&& stage) const {
    static_assert(std::is_trivially_copyable_v<Key>,
                  "optimistic reads require trivially copyable keys");
    return ValidatedLookup<kMaxKeys, Sink, Candidates>(
        seq_, keys.size(),
        [&](Candidates* cand) {
          stage(cand);
          return StagedGeometry{opts_.num_hashes, seqlock_domain()};
        },
        [&](size_t i, const Candidates& cand, Value* v, Sink& sink) {
          return self().ProbeMain(keys[i], cand, v, NoCharge{}, sink);
        },
        *metrics_, out, found);
  }

  /// Adopts a Rehash-rebuilt table — the one commit, whether or not
  /// optimistic readers may be probing this table (with a seqlock
  /// attached the caller holds the aux stripe odd). The table's
  /// AdoptStorage exchanges the reader-visible storage pointer-wise, so a
  /// racing reader sees the old or the new buffer but never a transient
  /// moved-from state, and parks the replaced buffers while a seqlock is
  /// attached so lagging readers keep dereferencing live memory. The
  /// stats_/metrics_/latency_ heap objects stay identity-stable — a lagging
  /// reader flushes its tally through the pre-commit pointer after
  /// validation, and an auto-growing Insert still holds a latency sample on
  /// the recorder — so the rebuild's deltas are merged into them. The
  /// lifetime timeline (spans_), the growth policy's backoff/reseed state,
  /// and the wrapper's seqlock and lock-stripe attachments stay this
  /// table's; every other member is the rebuild's.
  void CommitRebuild(Derived& rebuilt) {
    self().AdoptStorage(rebuilt, /*retire=*/seq_ != nullptr);
    opts_ = rebuilt.opts_;
    family_ = std::move(rebuilt.family_);
    *stats_ += *rebuilt.stats_;
    metrics_->MergeFrom(*rebuilt.metrics_);
    latency_->MergeFrom(*rebuilt.latency_);
    trace_ = std::move(rebuilt.trace_);
    kick_history_.AdoptStorage(std::move(rebuilt.kick_history_));
    stash_ = std::move(rebuilt.stash_);
    rng_ = std::move(rebuilt.rng_);
    // The rebuild just freed space (or moved every key under new seeds),
    // so any dead-end streak is stale.
    bfs_throttle_ = {};
    size_ = rebuilt.size_;
    first_collision_items_ = rebuilt.first_collision_items_;
    first_failure_items_ = rebuilt.first_failure_items_;
    redundant_writes_ = rebuilt.redundant_writes_;
    stale_stash_flag_keys_ = rebuilt.stale_stash_flag_keys_;
    forced_rehash_events_ = rebuilt.forced_rehash_events_;
    ++rehash_epoch_;
  }

 protected:
  // Member layout. The table's storage follows these members, so the
  // object runs from the writer-owned state to the read-mostly state every
  // probe touches, which starts on a fresh cache line (opts_). The
  // lifetime tallies head the writer-owned lines: the multi-writer paths
  // RMW them, and no probe may share their line. MovableAtomic keeps the
  // single-writer sites' plain ++/+=/= spelling as non-RMW loads and
  // stores.
  alignas(64) MovableAtomic<size_t> size_ = 0;
  MovableAtomic<uint64_t> first_collision_items_ = 0;
  MovableAtomic<uint64_t> first_failure_items_ = 0;
  MovableAtomic<uint64_t> redundant_writes_ = 0;
  MovableAtomic<uint64_t> stale_stash_flag_keys_ = 0;
  MovableAtomic<uint64_t> forced_rehash_events_ = 0;
  // Auto-growth state machine. Survives Rehash commits: the policy tracks
  // this table's lifetime (backoff, reseed quota), not one geometry's.
  GrowthPolicy growth_;
  // Single-writer state (writer exclusion): the kick-chain trace ring, the
  // growth/rehash/dead-end/spill timeline, MinCounter's history, the
  // eviction RNG, the BFS dead-end throttle, and the set of stripes the
  // in-flight mutation holds odd until its SeqFlush().
  TraceRecorder trace_;
  SpanRecorder spans_;
  KickHistory kick_history_;
  Xoshiro256 rng_;
  BfsThrottle bfs_throttle_;
  SeqlockWriterSet seq_open_;
  // Read-mostly state, from here through the table's storage.
  alignas(64) TableOptions opts_;
  HashFamily<Key, Hasher> family_;
  // Heap-allocated so the pointer handed to the counter store and
  // KickHistory stays valid when the table is moved (factory returns), and
  // so a Rehash commit keeps them identity-stable.
  mutable std::unique_ptr<AccessStats> stats_ =
      std::make_unique<AccessStats>();
  // Same pattern for the metrics: atomics are immovable, the unique_ptr
  // keeps the table movable and lets const read paths record.
  mutable std::unique_ptr<TableMetrics> metrics_ =
      std::make_unique<TableMetrics>();
  // Sampled op-latency recorder: heap-held for the same identity-stability
  // reason as metrics_. The sample period is applied from opts_ in the
  // constructor body.
  mutable std::unique_ptr<LatencyRecorder> latency_ =
      std::make_unique<LatencyRecorder>();
  // Optimistic-read support: non-owning version array attached by the
  // concurrent wrapper (null in single-threaded use).
  SeqlockArray* seq_ = nullptr;
  Stash<Key, Value> stash_;
  MovableAtomic<uint64_t> rehash_epoch_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_TABLE_CHASSIS_H_
