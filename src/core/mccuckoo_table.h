// Multi-copy Cuckoo hash table (McCuckoo) — the paper's core contribution.
//
// A d-ary, one-slot-per-bucket cuckoo table that, instead of committing an
// inserted item to a single bucket, writes a copy into *every* free
// candidate bucket and tracks each bucket occupant's total copy count in a
// compact on-chip counter array. The counters then drive every operation:
//
//  * Insertion (§III.B.1) — principles:
//      1. occupy all empty candidate buckets;
//      2. never overwrite a bucket of value 1 (a sole copy);
//      3. overwrite the rest in decreasing counter order while the victim
//         still has at least two more copies than the inserted item
//         (V >= n_x + 2).
//    A real collision only occurs when all candidates hold sole copies;
//    then a counter-guided random walk relocates items, and maxloop
//    overruns go to an off-chip stash.
//  * Lookup (§III.B.2) — candidates are partitioned by counter value;
//    partitions smaller than their value are impossible and skipped; a
//    partition of size S and value V needs at most S - V + 1 probes. With
//    deletions disabled, a zero counter anywhere proves the key was never
//    inserted (Bloom property: zero off-chip accesses).
//  * Deletion (§III.B.3) — all V copies are located, then only their on-chip
//    counters are reset (or tombstoned): zero off-chip writes.
//  * Stash screening (§III.E/F) — a 1-bit flag per bucket (stored with the
//    bucket, read back for free during lookups) plus the rule "a stashed
//    item always saw all-ones counters" suppress almost every stash probe.
//
// One point the paper leaves implicit is made explicit here: overwriting a
// redundant copy of victim B (counter V >= 2) requires decrementing B's
// *other* copies' counters, whose positions are only learned by reading B's
// key from the overwritten bucket (the read cost visible in Fig 10a) and
// then identifying B's copies inside the value-V partition of B's
// candidates — by pigeonhole inference when the partition has exactly V
// members, by further reads otherwise. See LocateOtherCopies().

#ifndef MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_MCCUCKOO_TABLE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/growth.h"
#include "src/core/lock_stripes.h"
#include "src/core/seqlock.h"
#include "src/core/stash.h"
#include "src/core/table_chassis.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_recorder.h"

namespace mccuckoo {

static_assert(kMaxHashes + 1 <= kMetricsPartitions,
              "partition metric arrays must cover counter values 0..d");

/// Multi-copy cuckoo hash table. Key must be equality-comparable and
/// hashable by Hasher; Key and Value must be copyable. Not thread-safe (see
/// ShardedMcCuckoo, src/core/sharded_mccuckoo.h, for the concurrent
/// front-end). Everything but the layout and the insertion algorithms —
/// lookup entry points, stash upkeep, rehash and growth, seqlock writer
/// hooks, metrics and scans — is the shared chassis (table_chassis.h).
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class McCuckooTable
    : public McCuckooChassis<McCuckooTable<Key, Value, Hasher>, Key, Value,
                             Hasher> {
 public:
  using HasherType = Hasher;

  /// One off-chip bucket: the stored record plus the 1-bit stash flag that
  /// shares the bucket's memory word (§III.E). Occupancy is defined by the
  /// on-chip counter, not by the bucket itself.
  struct Bucket {
    Key key{};
    Value value{};
    bool stash_flag = false;
  };

 private:
  using Chassis = McCuckooChassis<McCuckooTable, Key, Value, Hasher>;
  friend Chassis;
  using typename Chassis::Candidates;
  using Chassis::ComputeCandidates;
  using Chassis::bfs_throttle_;
  using Chassis::family_;
  using Chassis::first_collision_items_;
  using Chassis::first_failure_items_;
  using Chassis::forced_rehash_events_;
  using Chassis::growth_;
  using Chassis::kick_history_;
  using Chassis::kNoBucket;
  using Chassis::latency_;
  using Chassis::MaybeGrow;
  using Chassis::metrics_;
  using Chassis::opts_;
  using Chassis::redundant_writes_;
  using Chassis::rehash_epoch_;
  using Chassis::RequireDeletion;
  using Chassis::rng_;
  using Chassis::SeqOpen;
  using Chassis::seq_;
  using Chassis::size_;
  using Chassis::spans_;
  using Chassis::stale_stash_flag_keys_;
  using Chassis::stash_;
  using Chassis::StashOverflow;
  using Chassis::stats_;
  using Chassis::trace_;

  // Nested aggregates are defined before the operations: the batched and
  // candidate-reusing member signatures below mention them.

  /// Up to d global indices holding copies of one key.
  struct CopySet {
    std::array<size_t, kMaxHashes> idx;
    uint32_t count = 0;
  };

  /// Where a hit was found (the write paths' ProbeMain output).
  using Position = size_t;

 public:
  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit McCuckooTable(const TableOptions& options)
      : Chassis(options, /*rng_salt=*/0xA5A5A5A5A5A5A5A5ull),
        table_(options.num_hashes * options.buckets_per_table),
        counters_(options.num_hashes * options.buckets_per_table,
                  options.num_hashes, stats_.get()) {}

  /// Probe kernel the lookup paths use. The single-slot table screens with
  /// one fingerprint byte per candidate — a header-screened scalar probe;
  /// only the blocked table has whole-bucket headers for the SIMD kernels.
  const char* probe_variant() const { return "scalar"; }

  /// Attaches (or detaches) the striped writer-lock array for the
  /// multi-writer path (see lock_stripes.h). Must be congruent with the
  /// attached SeqlockArray (same sizing hint): holding a lock stripe grants
  /// exclusive writer rights over the matching seqlock stripe, which is
  /// what keeps the blind non-RMW version bumps valid under many writers.
  void AttachLockStripes(LockStripeArray* locks) { locks_ = locks; }

  // ===== Multi-writer (striped-lock) operations ===========================
  //
  // The Concurrent* entry points below let many writers mutate the table at
  // once under an attached LockStripeArray (congruent with the attached
  // SeqlockArray, see lock_stripes.h). The protocol, in brief:
  //
  //  * An operation BLOCK-acquires only its own key's candidate stripes —
  //    sorted, deduplicated, known up front — plus (last) the aux stripe,
  //    which is globally maximal. Everything discovered mid-operation (BFS
  //    chain nodes, the terminal, a displaced victim's other copies) is
  //    TRY-locked only; a failed try-lock releases the mid-op suffix and
  //    replans or restarts. Blocking acquisition in ascending order with no
  //    later blocking waits is deadlock-free by the classic ordering
  //    argument.
  //  * Every counter mutation anywhere in the table happens under that
  //    bucket's stripe. Holding a stripe therefore pins its buckets'
  //    counters AND the copy-sets of the items in them: displacing a copy
  //    of item X requires try-locking all of X's other copies first, which
  //    a holder of any one of them blocks.
  //  * Eviction runs the BFS engine in plan/validate/apply form regardless
  //    of the configured policy (the walk policies mutate mid-chain and
  //    lean on shared RNG/history state). The plan phase reads racily and
  //    mutates nothing; the chain is then try-claimed and re-validated
  //    under the claims; the apply phase runs terminal-first, and its only
  //    fallible step (claiming a redundant terminal occupant's other
  //    copies) fails before any mutation — so a failure replans cleanly.
  //  * Seqlock windows for the whole operation are opened in a stack-local
  //    SeqlockWriterSet and closed *before* the stripe locks are released:
  //    the next holder of a stripe owns its version cell again only after
  //    our odd window is closed.
  //  * These paths charge no AccessStats and record no trace/span/kick
  //    history (those are writer-exclusion structures); TableMetrics and
  //    the latency recorder are atomic and recorded normally.
  //
  // Callers (ShardedMcCuckoo in WriteMode::kMultiWriter) hold the shard
  // mutex shared for every operation; growth escalates to the exclusive
  // side plus a full LockStripeDrain, so in-flight operations never see a
  // geometry change — which is also why mid-operation bucket indices stay
  // in bounds.

  /// Multi-writer insert of a key assumed not to be present (same contract
  /// as Insert: duplicates corrupt the copy invariants). `growth_mu`
  /// serializes the growth-policy bookkeeping; `*wants_growth` is set when
  /// the policy asks for a rehash/reseed, which the caller performs under
  /// full exclusivity via MaybeGrowExclusive().
  InsertResult ConcurrentInsert(const Key& key, const Value& value,
                                std::mutex& growth_mu, bool* wants_growth) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      // A redundant candidate's other copies are transiently claimed by
      // another writer; back off completely (breaking hold-and-wait) and
      // redo the acquisition. Nothing was mutated, no seq window is open.
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer InsertOrAssign: updates every copy in place when the key
  /// exists (main table or stash), inserts otherwise. The candidate
  /// stripes stay held across the found/stash/insert decision, so the
  /// presence check cannot go stale before the insert.
  InsertResult ConcurrentInsertOrAssign(const Key& key, const Value& value,
                                        std::mutex& growth_mu,
                                        bool* wants_growth) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kInsert);
    assert(locks_ != nullptr);
    *wants_growth = false;
    const uint64_t t0 = MetricsNowNs();
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    bool collided = false;
    bool need_restart = false;
    uint32_t chain_len = 0, bfs_nodes = 0, bfs_budget = 0;
    InsertResult r;
    for (;;) {
      AcquireCandidateStripes(ls, cand);
      // Re-locate on every (re)acquisition: between restarts another
      // writer of the same key may have inserted it.
      const CopySet copies = ConcurrentLocateCopies(key, cand);
      if (copies.count > 0) {
        for (uint32_t i = 0; i < copies.count; ++i) {
          // Value-only update: the occupant's key, tag and counter are
          // already exactly this key's (located under the held stripes).
          SeqOpenIn(ws, copies.idx[i]);
          table_[copies.idx[i]].value = value;
        }
        ConcurrentFlush(ws, ls);
        return InsertResult::kUpdated;
      }
      if (ConcurrentShouldProbeStash(cand)) {
        ls.AcquireAux();
        const bool in_stash = stash_.Find(key, nullptr);
        metrics_->RecordStashProbe(in_stash);
        if (in_stash) {
          SeqOpenAuxIn(ws);
          stash_.Insert(key, value);
          ConcurrentFlush(ws, ls);
          return InsertResult::kUpdated;
        }
        // Keep aux held through the insert attempt: it is the maximal
        // stripe and any later AcquireAux is an idempotent no-op.
      }
      r = ConcurrentPlaceOrEvict(key, value, cand, ls, ws, &collided,
                                 &need_restart, &chain_len, &bfs_nodes,
                                 &bfs_budget);
      if (!need_restart) break;
      ls.ReleaseAll();
      std::this_thread::yield();
    }
    ConcurrentFlush(ws, ls);
    metrics_->RecordInsert(chain_len, MetricsNowNs() - t0);
    if (collided) {
      metrics_->RecordPolicyChain(static_cast<uint32_t>(EvictionPolicy::kBfs),
                                  chain_len);
      metrics_->RecordBfsNodes(bfs_nodes);
    }
    *wants_growth = ConcurrentGrowthCheck(
        growth_mu, r != InsertResult::kInserted, chain_len, bfs_nodes,
        bfs_budget);
    return r;
  }

  /// Multi-writer erase: all copies of the key lie among the held
  /// candidates, so locating them under the stripes is exact.
  bool ConcurrentErase(const Key& key) {
    ScopedLatencySample lat(latency_.get(), LatencyOp::kErase);
    assert(locks_ != nullptr);
    RequireDeletion("ConcurrentErase");
    const Candidates cand = ComputeCandidates(key);
    LockStripeSet ls(*locks_, metrics_.get());
    SeqlockWriterSet ws;
    AcquireCandidateStripes(ls, cand);
    const CopySet copies = ConcurrentLocateCopies(key, cand);
    if (copies.count > 0) {
      for (uint32_t i = 0; i < copies.count; ++i) {
        SeqOpenIn(ws, copies.idx[i]);
        if (opts_.deletion_mode == DeletionMode::kTombstone) {
          counters_.AtomicMarkDeleted(copies.idx[i]);
        } else {
          counters_.AtomicSet(copies.idx[i], 0);
        }
      }
      size_.FetchSub(1);
      ConcurrentFlush(ws, ls);
      metrics_->RecordErase();
      return true;
    }
    if (ConcurrentShouldProbeStash(cand)) {
      ls.AcquireAux();
      SeqOpenAuxIn(ws);
      const bool hit = stash_.Erase(key);
      ConcurrentFlush(ws, ls);
      metrics_->RecordStashProbe(hit);
      if (hit) {
        // Stash items are not counted in size_, so no decrement here.
        stale_stash_flag_keys_.FetchAdd(1);
        metrics_->RecordErase();
        return true;
      }
      return false;
    }
    ls.ReleaseAll();
    return false;
  }

  /// Striped-lock reader fallback for the multi-writer mode: takes the
  /// key's candidate stripes (blocking, ordered) instead of any table-wide
  /// lock, so a fallback read waits only for writers touching its own
  /// candidates. Does not require the shard mutex: a rehash
  /// cannot *start* while we hold any stripe (growth drains them all), and
  /// one that committed between candidate computation and acquisition is
  /// caught by the epoch check and retried. Not latency-sampled: the
  /// wrapper's Find samples the whole read.
  bool FindStriped(const Key& key, Value* out = nullptr) const {
    assert(locks_ != nullptr);
    for (;;) {
      const uint64_t epoch = rehash_epoch_.load();
      uint32_t d;
      Candidates cand;
      bool in_range = true;
      {
        // Geometry and options may be swapping under us (a committing
        // rehash rewrites opts_) until the stripes are held.
        SeqlockReadCritical crit;
        d = opts_.num_hashes;
        cand = ComputeCandidates(key);
        for (uint32_t t = 0; t < d; ++t) {
          in_range = in_range && cand.idx[t] < table_.size();
        }
      }
      if (!in_range) continue;  // torn mid-commit read; retry
      LockStripeSet ls(*locks_, metrics_.get());
      {
        std::array<size_t, kMaxHashes> stripes;
        for (uint32_t t = 0; t < d; ++t) {
          stripes[t] = locks_->StripeOf(cand.idx[t]);
        }
        ls.AcquireOrdered(stripes.data(), d);
      }
      // The stripe acquisitions are acquire barriers and the committing
      // rehash bumps the epoch before releasing its drain, so an unchanged
      // epoch here proves the candidates match the live geometry.
      if (rehash_epoch_.load() != epoch) continue;
      Value tmp{};
      LookupRecord rec;
      ProbeOutcome mo;
      {
        // Neighbouring buckets in the same cache lines may still be
        // mutated by writers holding *other* stripes.
        SeqlockReadCritical crit;
        mo = ProbeMain(key, cand, &tmp, NoCharge{}, rec);
      }
      bool hit = (mo == ProbeOutcome::kHit);
      if (mo == ProbeOutcome::kCheckStash) {
        ls.AcquireAux();
        hit = stash_.Find(key, &tmp);
        rec.RecordStashProbe(hit);
      }
      rec.FlushTo(*metrics_);
      ls.ReleaseAll();
      if (hit && out != nullptr) *out = tmp;
      return hit;
    }
  }

  /// Growth-policy bookkeeping for one concurrent insert, serialized by
  /// the wrapper's growth mutex (GrowthPolicy state is not thread-safe).
  /// Returns true when the policy wants a rehash/reseed; the caller then
  /// escalates to the exclusive shard mutex and calls
  /// MaybeGrowExclusive().
  bool ConcurrentGrowthCheck(std::mutex& growth_mu, bool overflowed,
                             uint32_t chain_len, uint32_t bfs_nodes,
                             uint32_t bfs_budget) {
    std::lock_guard<std::mutex> g(growth_mu);
    growth_.ObserveInsert(overflowed, chain_len, opts_.maxloop, bfs_nodes,
                          bfs_budget);
    const GrowthDecision d = growth_.Decide(
        {ApproxTotalItems(), opts_.capacity(), ApproxStashSize(),
         opts_.buckets_per_table});
    if (d.action == GrowthAction::kSuppressed) {
      metrics_->SetGrowthSuppressed(true);
      return false;
    }
    return d.action != GrowthAction::kNone;
  }

  /// Runs the growth engine under full exclusivity: the caller holds the
  /// shard mutex exclusively plus every lock stripe (LockStripeDrain).
  /// Re-decides from scratch, so if a competing writer already grew the
  /// table this is a no-op.
  void MaybeGrowExclusive() { MaybeGrow(); }

  /// Racy item-count estimates for growth decisions and wrapper
  /// introspection (annotated: the stash map may be mutating under aux).
  size_t ApproxStashSize() const {
    SeqlockReadCritical crit;
    return stash_.size();
  }
  size_t ApproxTotalItems() const { return size_.load() + ApproxStashSize(); }

 private:
  // --- multi-writer internals --------------------------------------------

  /// Bounded replans for a contended/invalidated BFS chain before the
  /// operation falls back to the stash.
  static constexpr int kMaxChainReplans = 3;

  void AcquireCandidateStripes(LockStripeSet& ls, const Candidates& cand) {
    std::array<size_t, kMaxHashes> stripes;
    const uint32_t d = opts_.num_hashes;
    for (uint32_t t = 0; t < d; ++t) {
      stripes[t] = locks_->StripeOf(cand.idx[t]);
    }
    ls.AcquireOrdered(stripes.data(), d);
  }

  // Seqlock hooks against a stack-local writer set: concurrent operations
  // must not share the member seq_open_ (it is single-writer state).
  void SeqOpenIn(SeqlockWriterSet& ws, size_t bucket_idx) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->StripeOf(bucket_idx));
  }
  void SeqOpenAuxIn(SeqlockWriterSet& ws) {
    if (seq_ != nullptr) ws.Open(*seq_, seq_->aux_stripe());
  }

  /// Publishes the operation's seqlock windows, then releases its stripe
  /// locks — strictly in that order, so the next stripe holder owns the
  /// version cells only after our odd windows closed. Also flushes the
  /// per-operation lock-contention tallies. Safe to call with nothing
  /// held/open.
  void ConcurrentFlush(SeqlockWriterSet& ws, LockStripeSet& ls) {
    if (seq_ != nullptr) ws.CloseAll(*seq_);
    ls.ReleaseAll();
  }

  /// Uncharged bucket store under a held stripe (the concurrent paths run
  /// outside the paper's single-writer access model, so AccessStats stay
  /// untouched; see the section comment).
  void ConcurrentStoreBucket(SeqlockWriterSet& ws, size_t idx, const Key& key,
                             const Value& value) {
    SeqOpenIn(ws, idx);
    Bucket& b = table_[idx];
    b.key = key;
    b.value = value;
    counters_.AtomicSetTag(idx, family_.TagOf(key));
  }

  void ConcurrentSetFlag(SeqlockWriterSet& ws, size_t idx) {
    SeqOpenIn(ws, idx);
    table_[idx].stash_flag = true;
  }

  /// Exact copy location under held candidate stripes: every copy of `key`
  /// lives in one of its candidates, whose occupants cannot change while
  /// the stripes are held.
  CopySet ConcurrentLocateCopies(const Key& key, const Candidates& cand) {
    CopySet out{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.idx[t];
      if (counters_.PeekCounter(idx) > 0 && table_[idx].key == key) {
        out.idx[out.count++] = idx;
      }
    }
    return out;
  }

  /// The stash screen for the concurrent write paths, over the held
  /// candidates. With the stripes held it can consult every stash_flag
  /// exactly, a strictly stronger (still sound) fact than the lookup's
  /// "flags the probe read": a stashed key set all d flags.
  bool ConcurrentShouldProbeStash(const Candidates& cand) {
    bool stash_empty;
    {
      // Benign race on the map size: our own key's stash membership is
      // pinned by the held candidate stripes (any writer stashing or
      // un-stashing it needs them), and the happens-before edge through
      // those stripes makes its effect on empty() visible.
      SeqlockReadCritical crit;
      stash_empty = stash_.empty();
    }
    if (stash_empty) return false;  // the server's usual case: no reads
    const uint32_t d = opts_.num_hashes;
    bool any_zero = false, all_ones = true;
    for (uint32_t t = 0; t < d; ++t) {
      const uint64_t c = counters_.PeekCounter(cand.idx[t]);
      const bool tomb = opts_.deletion_mode == DeletionMode::kTombstone &&
                        counters_.PeekTombstone(cand.idx[t]);
      if (c == 0 && !tomb) any_zero = true;
      if (c != 1) all_ones = false;
    }
    return ShouldProbeStash(opts_, stash_empty, any_zero, all_ones, [&] {
      for (uint32_t t = 0; t < d; ++t) {
        if (!table_[cand.idx[t]].stash_flag) return true;
      }
      return false;
    });
  }

  bool AllCandidatesSoleCopies(const Candidates& cand) const {
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (counters_.PeekCounter(cand.idx[t]) != 1) return false;
    }
    return true;
  }

  /// Place-or-evict body shared by ConcurrentInsert/InsertOrAssign. Called
  /// with the candidate stripes held. Sets *need_restart (with nothing
  /// mutated and no seq window open) when a redundant candidate's victim
  /// copies could not be claimed — the caller releases everything and
  /// retries, which cannot be done here without breaking lock ordering.
  InsertResult ConcurrentPlaceOrEvict(const Key& key, const Value& value,
                                      const Candidates& cand,
                                      LockStripeSet& ls, SeqlockWriterSet& ws,
                                      bool* collided, bool* need_restart,
                                      uint32_t* chain_len, uint32_t* nodes,
                                      uint32_t* budget) {
    *collided = false;
    *need_restart = false;
    const uint32_t placed = ConcurrentTryPlace(key, value, cand, ls, ws);
    if (placed > 0) {
      size_.FetchAdd(1);
      return InsertResult::kInserted;
    }
    if (!AllCandidatesSoleCopies(cand)) {
      // A candidate still holds a redundant copy we failed to claim. BFS
      // requires all-ones roots (and so does the stash screen), so this
      // transient contention must be resolved by a full restart.
      *need_restart = true;
      return InsertResult::kFailed;
    }
    *collided = true;
    uint64_t expect_zero = 0;
    first_collision_items_.CompareExchange(expect_zero,
                                           ApproxTotalItems() + 1);
    return ConcurrentBfsInsert(key, value, cand, ls, ws, chain_len, nodes,
                               budget);
  }

  /// TryPlace under held candidate stripes. Differences from the
  /// single-writer form: counter updates go through the CAS accessors, and
  /// a redundant victim whose other copies cannot be try-claimed is
  /// skipped rather than waited for (the caller restarts when that leaves
  /// a non-sole-copy candidate unplaced).
  uint32_t ConcurrentTryPlace(const Key& key, const Value& value,
                              const Candidates& cand, LockStripeSet& ls,
                              SeqlockWriterSet& ws) {
    const uint32_t d = opts_.num_hashes;
    std::array<bool, kMaxHashes> taken{};
    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;
    // Principle 1: occupy all the empty candidate buckets (tombstones read
    // as counter 0 through PeekCounter and are recycled transparently).
    for (uint32_t t = 0; t < d; ++t) {
      if (counters_.PeekCounter(cand.idx[t]) == 0) {
        ConcurrentStoreBucket(ws, cand.idx[t], key, value);
        placed[n_placed++] = cand.idx[t];
        taken[t] = true;
      }
    }
    // Principles 2+3, as in TryPlace (re-read each round; never touch 1).
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = counters_.PeekCounter(cand.idx[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      if (!ConcurrentOverwriteRedundant(ls, ws, cand.idx[best], best_v, key,
                                        value)) {
        taken[best] = true;  // contended victim: consider the next-best
        continue;
      }
      placed[n_placed++] = cand.idx[best];
      taken[best] = true;
    }
    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpenIn(ws, placed[i]);
      counters_.AtomicSet(placed[i], n_placed);
    }
    redundant_writes_.FetchAdd(n_placed - 1);
    return n_placed;
  }

  /// OverwriteRedundantCopy under the claim-then-move discipline: try-lock
  /// the victim item's other candidate stripes, identify its copies
  /// exactly by key compare (the copy-set is frozen — changing it would
  /// need the victim's stripe, which we hold), decrement them, then
  /// overwrite. Fails cleanly BEFORE any mutation when a claim fails; on
  /// success the claimed stripes stay held until the operation ends.
  bool ConcurrentOverwriteRedundant(LockStripeSet& ls, SeqlockWriterSet& ws,
                                    size_t victim_idx, uint64_t v,
                                    const Key& key, const Value& value) {
    assert(v >= 2);
    const size_t held_before = ls.held_count();
    const Key victim_key = table_[victim_idx].key;  // stripe held: stable
    const Candidates vc = ComputeCandidates(victim_key);
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      if (vc.idx[t] == victim_idx) continue;
      if (!ls.TryAcquire(locks_->StripeOf(vc.idx[t]))) {
        ls.ReleaseSuffix(held_before);
        return false;
      }
    }
    CopySet others{};
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = vc.idx[t];
      if (idx == victim_idx) continue;
      if (counters_.PeekCounter(idx) == v && table_[idx].key == victim_key) {
        others.idx[others.count++] = idx;
      }
    }
    assert(others.count == v - 1);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpenIn(ws, others.idx[i]);
      counters_.AtomicDecrement(others.idx[i]);
    }
    ConcurrentStoreBucket(ws, victim_idx, key, value);
    return true;
  }

  /// Re-validates a racily planned BFS chain under its claimed stripes:
  /// every interior node must still hold a sole copy whose alternates
  /// include the next hop (linkage recomputed from the now-stable key).
  bool ValidateChain(const BfsPathResult& path) const {
    for (size_t i = 0; i < path.node.size(); ++i) {
      const size_t bucket = static_cast<size_t>(path.node[i]);
      if (counters_.PeekCounter(bucket) != 1) return false;
      const uint64_t next =
          i + 1 < path.node.size() ? path.node[i + 1] : path.terminal;
      const Candidates oc = ComputeCandidates(table_[bucket].key);
      bool linked = false;
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        linked = linked || (oc.idx[t] == next);
      }
      if (!linked) return false;
    }
    return true;
  }

  /// BfsInsert in plan/validate/apply form. Entered with the candidate
  /// stripes held and every candidate a sole copy. The plan phase reads
  /// racily (annotated) and mutates nothing; indices stay in bounds
  /// because geometry cannot change while we hold stripes. The claim
  /// phase try-locks nodes[1..] and the terminal (node[0] is a held
  /// root); validation re-checks the chain under the claims; the apply
  /// phase mirrors the single-writer backward shift. Skips the shared
  /// BfsThrottle (its streak state is single-writer) and always uses the
  /// full node budget.
  InsertResult ConcurrentBfsInsert(const Key& key, const Value& value,
                                   const Candidates& cand, LockStripeSet& ls,
                                   SeqlockWriterSet& ws, uint32_t* chain_len,
                                   uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.idx[t];
    *budget_out = BfsNodeBudget(opts_.maxloop);
    *chain_len = 0;
    *nodes_out = 0;
    for (int attempt = 0; attempt < kMaxChainReplans; ++attempt) {
      BfsPathResult path;
      {
        SeqlockReadCritical crit;  // unclaimed buckets mutate underneath
        path = BfsFindPath(
            roots.data(), d, *budget_out,
            [&](uint64_t id, auto&& emit, auto&& terminal) {
              const size_t bucket = static_cast<size_t>(id);
              const Key okey = table_[bucket].key;  // racy, re-validated
              const Candidates oc = ComputeCandidates(okey);
              for (uint32_t t = 0; t < d; ++t) {
                const size_t alt = oc.idx[t];
                if (alt == bucket) continue;
                if (counters_.PeekCounter(alt) != 1) {
                  terminal(alt);
                  return;
                }
                __builtin_prefetch(&table_[alt], 0, 1);
                emit(alt);
              }
            });
      }
      *nodes_out += path.nodes_expanded;
      if (!path.found) break;  // genuine dead end: stash below
      const size_t held_before = ls.held_count();
      bool claimed = true;
      for (size_t i = 1; i < path.node.size() && claimed; ++i) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.node[i]));
      }
      if (claimed) {
        claimed = ls.TryAcquireChain(locks_->StripeOf(path.terminal));
      }
      if (claimed) claimed = ValidateChain(path);
      uint64_t term_v = 0;
      if (claimed) {
        term_v = counters_.PeekCounter(path.terminal);
        if (term_v == 1) claimed = false;  // no longer a terminal
      }
      bool applied = claimed;
      if (claimed) {
        // Apply backward. The terminal move runs first and is the only
        // fallible step; its failure leaves the table untouched.
        size_t dst = static_cast<size_t>(path.terminal);
        for (size_t i = path.node.size(); i-- > 0;) {
          const size_t src = static_cast<size_t>(path.node[i]);
          const Bucket moved = table_[src];
          if (dst == static_cast<size_t>(path.terminal)) {
            if (term_v >= 2) {
              if (!ConcurrentOverwriteRedundant(ls, ws, dst, term_v,
                                                moved.key, moved.value)) {
                applied = false;
                break;
              }
            } else {
              ConcurrentStoreBucket(ws, dst, moved.key, moved.value);
            }
            SeqOpenIn(ws, dst);
            counters_.AtomicSet(dst, 1);  // the moved item is a sole copy
          } else {
            ConcurrentStoreBucket(ws, dst, moved.key, moved.value);
            // Counter stays 1: dst already held a sole copy.
          }
          dst = src;
        }
      }
      if (!applied) {
        ls.ReleaseSuffix(held_before);
        std::this_thread::yield();
        continue;
      }
      ConcurrentStoreBucket(ws, static_cast<size_t>(path.node.front()), key,
                            value);
      size_.FetchAdd(1);
      *chain_len = static_cast<uint32_t>(path.node.size());
      return InsertResult::kInserted;
    }
    // Stash tail. The root stripes have been held continuously since
    // ConcurrentTryPlace proved all-ones and nothing placed since, so the
    // kDisabled stash screen's precondition holds exactly as in the
    // single-writer path; the flags land on the held roots themselves.
    uint64_t expect_zero = 0;
    first_failure_items_.CompareExchange(expect_zero, ApproxTotalItems() + 1);
    ls.AcquireAux();
    SeqOpenAuxIn(ws);
    stash_.Insert(key, value);
    if (opts_.stash_kind == StashKind::kOffchip) {
      for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
        ConcurrentSetFlag(ws, cand.idx[t]);
      }
    } else if (stash_.size() > opts_.onchip_stash_capacity) {
      forced_rehash_events_.FetchAdd(1);
    }
    return opts_.stash_enabled ? InsertResult::kStashed
                               : InsertResult::kFailed;
  }

 private:
  // --- chassis hooks (see table_chassis.h) -------------------------------

  static constexpr const char* kName = "McCuckooTable";
  /// The counter store keeps the low nibble of each occupant's fingerprint.
  static constexpr uint8_t kTagMask = 0x0Fu;

  static Status CheckLayout(const TableOptions& options) {
    if (options.slots_per_bucket != 1) {
      return Status::InvalidArgument(
          "McCuckooTable is single-slot; use BlockedMcCuckooTable");
    }
    return Status::OK();
  }

  size_t num_buckets() const { return table_.size(); }
  const Bucket& SlotAt(size_t idx) const { return table_[idx]; }
  bool FlagAt(size_t idx) const { return table_[idx].stash_flag; }

  void ClearStashFlags() {
    for (size_t idx = 0; idx < table_.size(); ++idx) {
      Bucket& b = table_[idx];
      if (b.stash_flag) {
        SeqOpen(idx);
        b.stash_flag = false;
        ++stats_->offchip_writes;
      }
    }
  }

  /// Rewrites every copy of the key found at `hit` (InsertOrAssign).
  void AssignCopies(const Key& key, const Value& value, size_t hit) {
    const CopySet copies =
        LocateAllCopies(key, hit, counters_.PeekCounter(hit));
    for (uint32_t i = 0; i < copies.count; ++i) {
      StoreBucket(copies.idx[i], key, value);
    }
  }

  /// Resets (or tombstones) every copy's counter (Erase): zero off-chip
  /// writes.
  void EraseCopies(const Key& key, size_t hit) {
    const CopySet copies =
        LocateAllCopies(key, hit, counters_.PeekCounter(hit));
    for (uint32_t i = 0; i < copies.count; ++i) {
      SeqOpen(copies.idx[i]);
      if (opts_.deletion_mode == DeletionMode::kTombstone) {
        counters_.MarkDeleted(copies.idx[i]);
      } else {
        counters_.Set(copies.idx[i], 0);
      }
    }
  }

  /// Takes the rebuilt buckets and counters pointer-wise; with `retire`
  /// the replaced storage is parked for lagging optimistic readers.
  void AdoptStorage(McCuckooTable& rebuilt, bool retire) {
    table_.swap(rebuilt.table_);
    counters_.SwapStorage(rebuilt.counters_);
    if (retire) {
      retired_.push_back(RetiredStorage{std::move(rebuilt.table_),
                                        std::move(rebuilt.counters_)});
    }
  }

  // --- batching stage 1: hash + prefetch ---------------------------------

  /// Hashes `n` keys through the family's batch entry point and issues
  /// prefetches for every candidate's counter word and bucket line. Pure
  /// hint stage: no AccessStats are charged (hashing is on-chip work and
  /// prefetches are not algorithmic reads).
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, Chassis::kBatchTile> buckets;
    std::array<uint8_t, Chassis::kBatchTile> tags;
    family_.BucketsBatch(keys, n, buckets.data(), tags.data());
    const uint32_t d = opts_.num_hashes;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        cand[i].idx[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
                         buckets[i][t];
      }
      cand[i].tag = tags[i];
    }
    // Counter words first: stage 2 consults them before any bucket, so
    // they have the shortest deadline.
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) counters_.Prefetch(cand[i].idx[t]);
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        if (for_write) {
          __builtin_prefetch(&table_[cand[i].idx[t]], 1, 3);
        } else {
          __builtin_prefetch(&table_[cand[i].idx[t]], 0, 1);
        }
      }
    }
  }

  // --- charged memory choke points --------------------------------------

  const Bucket& LoadBucket(size_t idx) {
    ++stats_->offchip_reads;
    return table_[idx];
  }

  void StoreBucket(size_t idx, const Key& key, const Value& value) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    Bucket& b = table_[idx];
    b.key = key;
    b.value = value;
    // stash_flag is sticky: preserved across occupant changes.
    // The fingerprint publishes inside the same seqlock window as the key
    // it describes; uncharged (software-layout state, see TagCounterArray).
    counters_.SetTag(idx, family_.TagOf(key));
  }

  void SetFlag(size_t idx) {
    SeqOpen(idx);
    ++stats_->offchip_writes;
    table_[idx].stash_flag = true;
  }

  // --- insertion ---------------------------------------------------------

  /// Applies insertion principles 1-3: fills empty candidates, then
  /// overwrites redundant copies in decreasing counter order while
  /// V >= placed + 2. Returns the number of copies placed (0 = collision).
  /// Updates counters of placed copies and of every displaced victim.
  uint32_t TryPlace(const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> cnt{};
    std::array<bool, kMaxHashes> taken{};
    for (uint32_t t = 0; t < d; ++t) {
      cnt[t] = counters_.Get(cand.idx[t]);
      // Tombstoned entries read as counter 0: "treated as zero for
      // insertion" (§III.B.3), so principle 1 recycles them transparently.
    }

    std::array<size_t, kMaxHashes> placed{};
    uint32_t n_placed = 0;

    // Principle 1: occupy all the empty candidate buckets.
    for (uint32_t t = 0; t < d; ++t) {
      if (cnt[t] == 0) {
        StoreBucket(cand.idx[t], key, value);
        placed[n_placed++] = cand.idx[t];
        taken[t] = true;
      }
    }

    // Principles 2+3: overwrite occupied candidates in decreasing counter
    // order while the victim keeps a lead of two copies; never touch value
    // 1. Counters are re-read each round: one insertion can displace two
    // copies of the *same* victim, whose counter drops in between.
    while (n_placed < d) {
      int best = -1;
      uint64_t best_v = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (taken[t]) continue;
        const uint64_t cur = counters_.Get(cand.idx[t]);
        if (cur > best_v) {
          best_v = cur;
          best = static_cast<int>(t);
        }
      }
      if (best < 0 || best_v < 2 || best_v < n_placed + 2) break;
      OverwriteRedundantCopy(cand.idx[best], best_v, key, value);
      placed[n_placed++] = cand.idx[best];
      taken[best] = true;
    }

    if (n_placed == 0) return 0;
    for (uint32_t i = 0; i < n_placed; ++i) {
      SeqOpen(placed[i]);
      counters_.Set(placed[i], n_placed);
    }
    redundant_writes_ += n_placed - 1;
    return n_placed;
  }

  /// Displaces the redundant copy at `victim_idx` (counter `v` >= 2) with
  /// (key, value), decrementing the victim item's other copies' counters.
  void OverwriteRedundantCopy(size_t victim_idx, uint64_t v, const Key& key,
                              const Value& value) {
    assert(v >= 2);
    const Key victim_key = LoadBucket(victim_idx).key;  // the Fig-10a read
    CopySet others = LocateOtherCopies(victim_key, victim_idx, v);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpen(others.idx[i]);
      counters_.Set(others.idx[i], v - 1);
    }
    StoreBucket(victim_idx, key, value);
  }

  /// Finds the v-1 buckets other than `known_idx` holding copies of `key`
  /// (whose counter value is `v`). All of them lie in the value-v partition
  /// of key's candidates; when the partition has exactly v members no reads
  /// are needed, otherwise members are read until the unread remainder must
  /// be the key's by pigeonhole.
  CopySet LocateOtherCopies(const Key& key, size_t known_idx, uint64_t v) {
    Candidates cand = ComputeCandidates(key);
    std::array<size_t, kMaxHashes> group{};
    uint32_t n_group = 0;
    for (uint32_t t = 0; t < opts_.num_hashes; ++t) {
      const size_t idx = cand.idx[t];
      if (idx == known_idx) continue;
      if (counters_.Get(idx) == v) group[n_group++] = idx;
    }
    const uint32_t need = static_cast<uint32_t>(v) - 1;
    assert(n_group >= need);

    CopySet out{};
    uint32_t confirmed = 0;
    for (uint32_t i = 0; i < n_group && confirmed < need; ++i) {
      const uint32_t unread = n_group - i;
      if (unread == need - confirmed) {
        // Pigeonhole: every remaining partition member must be a copy.
        for (uint32_t j = i; j < n_group; ++j) {
          out.idx[out.count++] = group[j];
          ++confirmed;
        }
        break;
      }
      if (LoadBucket(group[i]).key == key) {
        out.idx[out.count++] = group[i];
        ++confirmed;
      }
    }
    assert(confirmed == need);
    return out;
  }

  /// As LocateOtherCopies but includes `known_idx`, for erase/update.
  CopySet LocateAllCopies(const Key& key, size_t known_idx, uint64_t v) {
    CopySet out = LocateOtherCopies(key, known_idx, v);
    out.idx[out.count++] = known_idx;
    return out;
  }

  /// Counter-guided random walk (§III.D): at each step, if the in-hand item
  /// has any empty or redundant candidate the counters reveal it and the
  /// chain ends immediately; otherwise a sole-copy occupant (never the
  /// bucket just written) is evicted per the configured policy — uniform
  /// random, MinCounter's coldest bucket, or bubbling's deterministic
  /// level cycle. On maxloop overrun the in-hand item gets one final
  /// placement attempt and is otherwise stashed — candidates provably all
  /// sole copies — with its flags set (§III.E).
  InsertResult RandomWalkInsert(Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0) {
        const uint32_t placed = TryPlace(key, value, cand);
        if (placed > 0) {
          ++size_;  // net effect of the whole chain: the original key is in
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
      // All candidates hold sole copies: evict per the configured policy,
      // avoiding the bucket we just wrote (no immediate ping-pong).
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand.idx, opts_.num_hashes, exclude,
                                 from_level)
              : PickVictim(cand.idx, opts_.num_hashes, exclude, kick_history_,
                           rng_);
      const size_t idx = cand.idx[t];
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          ev.step[chain] = KickStep{
              static_cast<uint64_t>(idx),
              static_cast<uint32_t>(counters_.PeekCounter(idx))};
        }
      }
      const Bucket& victim = LoadBucket(idx);
      Key vk = victim.key;
      Value vv = victim.value;
      StoreBucket(idx, key, value);
      // Counter stays 1: the bucket still holds a sole copy.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(idx);
      exclude = idx;
      from_level = static_cast<int32_t>(t);
      key = std::move(vk);
      value = std::move(vv);
      ++chain;
    }
    // The loop's last iteration evicted one more victim without giving the
    // newly carried item a placement attempt of its own. Complete that step
    // before stashing: otherwise an item with an empty or redundant
    // candidate lands in the stash, and the kDisabled stash screen — which
    // relies on every stashed key having seen all-ones counters — would
    // veto that key's own lookups.
    {
      const Candidates cand = ComputeCandidates(key);
      const uint32_t placed = TryPlace(key, value, cand);
      if (placed > 0) {
        ++size_;
        *chain_len_out = chain;
        if constexpr (kMetricsEnabled) {
          ev.chain_len = chain;
          ev.n_steps =
              static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
          trace_.Record(ev);
        }
        return InsertResult::kInserted;
      }
    }
    // Insertion failure: park the in-hand item in the stash.
    *chain_len_out = chain;
    if constexpr (kMetricsEnabled) {
      ev.chain_len = chain;
      ev.n_steps =
          static_cast<uint32_t>(std::min<size_t>(chain, kMaxTraceSteps));
      ev.stashed = true;
      trace_.Record(ev);
      trace_.NoteStashed();
    }
    return StashOverflow(key, value);
  }

  /// Counter-aware breadth-first search for the shortest eviction chain
  /// (§III.D crossed with [3]). Entered only when TryPlace placed nothing,
  /// which proves every candidate of the in-hand key holds a sole copy —
  /// so all roots are valid interior nodes. The search itself reads one
  /// off-chip bucket per expanded node (the occupant key, to compute its
  /// alternates) and otherwise steers entirely by the on-chip counters:
  ///
  ///   counter == 0  -> free terminal (empty or tombstoned bucket);
  ///   counter >= 2  -> redundant terminal: "evicting" the occupant is a
  ///                    pure counter decrement of its other copies — the
  ///                    multi-copy advantage that keeps chains short where
  ///                    the single-copy BFS must walk to a true hole;
  ///   counter == 1  -> interior node, children = occupant's alternates.
  ///
  /// On success the chain shifts backward terminal-first under open seqlock
  /// stripes (published by the caller's single SeqFlush). On failure the
  /// table is untouched — BfsFindPath mutates nothing — so the stash tail
  /// inherits the all-ones invariant directly from the TryPlace screen.
  InsertResult BfsInsert(const Key& key, const Value& value,
                         const Candidates& cand, uint32_t* chain_len_out,
                         uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    std::array<uint64_t, kMaxHashes> roots{};
    for (uint32_t t = 0; t < d; ++t) roots[t] = cand.idx[t];
    *budget_out = bfs_throttle_.Budget(BfsNodeBudget(opts_.maxloop));
    const BfsPathResult path = BfsFindPath(
        roots.data(), d, *budget_out,
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t bucket = static_cast<size_t>(id);
          const Key okey = LoadBucket(bucket).key;  // the one off-chip read
          const Candidates oc = ComputeCandidates(okey);
          for (uint32_t t = 0; t < d; ++t) {
            const size_t alt = oc.idx[t];
            if (alt == bucket) continue;
            const uint64_t c = counters_.Get(alt);
            if (c != 1) {
              terminal(alt);  // 0 = free, >= 2 = redundant copy
              return;
            }
            // The child will be expanded (one occupant read) a few
            // iterations from now: issuing the fetch here overlaps the
            // DRAM latency of the whole frontier instead of paying one
            // serial miss per expanded node.
            __builtin_prefetch(&table_[alt], 0, 1);
            emit(alt);
          }
        });
    *nodes_out = path.nodes_expanded;
    bfs_throttle_.Observe(path.found);
    if (!path.found) {
      *chain_len_out = 0;
      if constexpr (kMetricsEnabled) {
        KickChainEvent ev{};
        ev.stashed = true;
        trace_.Record(ev);
        trace_.NoteStashed();
      }
      spans_.RecordInstant(SpanKind::kBfsDeadEnd, path.nodes_expanded);
      return StashOverflow(key, value);
    }
    // Apply the chain backward: the last interior occupant moves into the
    // terminal, each predecessor into its successor, and the new key lands
    // in the root. Every interior occupant is a sole copy (counter 1), so
    // moves are plain bucket stores; only the terminal changes counters.
    KickChainEvent ev{};
    size_t dst = static_cast<size_t>(path.terminal);
    const uint64_t term_v = counters_.PeekCounter(dst);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      const Bucket moved = table_[src];  // read during the search
      if (dst == static_cast<size_t>(path.terminal)) {
        if (term_v >= 2) {
          // Redundant terminal: displace one copy of the occupant, which
          // decrements its other copies' counters (zero relocations).
          OverwriteRedundantCopy(dst, term_v, moved.key, moved.value);
        } else {
          StoreBucket(dst, moved.key, moved.value);
        }
        SeqOpen(dst);
        counters_.Set(dst, 1);  // the moved item is a sole copy
      } else {
        StoreBucket(dst, moved.key, moved.value);
        // Counter stays 1: dst already held a sole copy.
      }
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(src);
      if constexpr (kMetricsEnabled) {
        if (i < kMaxTraceSteps) {
          ev.step[i] = KickStep{
              static_cast<uint64_t>(src),
              static_cast<uint32_t>(counters_.PeekCounter(src))};
        }
      }
      dst = src;
    }
    StoreBucket(static_cast<size_t>(path.node.front()), key, value);
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

  // --- lookup ------------------------------------------------------------

  /// The table's one lookup body: Algorithm 2's counter-partition probe
  /// (§III.B.2) over precomputed candidates, then the §III.E/F stash
  /// screen. `charge` is StatsCharge on the paper-model paths and NoCharge
  /// on the reader paths; `sink` receives the lookup metrics. On a hit the
  /// value goes to `out` (may be null) and, for the write paths that pass
  /// one, the bucket index to `*hit_idx`; the readers pass none, so their
  /// instantiations carry no such parameter. Mutates nothing but the
  /// charges, so racing optimistic callers can discard a torn result after
  /// validation.
  template <typename Charge, typename MetricsSink,
            typename HitOut = std::nullptr_t>
  ProbeOutcome ProbeMain(const Key& key, const Candidates& cand, Value* out,
                         Charge charge, MetricsSink& sink,
                         HitOut hit_idx = nullptr) const {
    const uint32_t d = opts_.num_hashes;
    const bool tomb_mode = opts_.deletion_mode == DeletionMode::kTombstone;
    // One bulk charge equal to what the per-candidate model reads: d counter
    // reads, doubled by the tombstone probe in kTombstone mode. The byte
    // peeks below are the same logical reads through the packed layout.
    charge.OnchipReads(static_cast<uint64_t>(d) * (tomb_mode ? 2 : 1));
    // A tombstone reads as counter 0, so it never joins a partition; it
    // only keeps its candidate from counting as a true zero.
    uint64_t counter[kMaxHashes];
    bool any_zero = false;
    for (uint32_t t = 0; t < d; ++t) {
      counter[t] = counters_.PeekCounter(cand.idx[t]);
      if (counter[t] == 0 &&
          !(tomb_mode && counters_.PeekTombstone(cand.idx[t]))) {
        any_zero = true;
      }
    }
    // The empty() read is a plain size check, memory-safe even when racing
    // a writer; optimistic callers validate the aux stripe before trusting
    // any conclusion drawn from it (including the tag skips below).
    const bool stash_empty = stash_.empty();
    const uint8_t tag_nibble = cand.tag & 0x0Fu;
    // Probe tallies on the stack, recorded into the sink once on the way out.
    uint32_t probes_total = 0;
    std::array<uint8_t, kMaxHashes + 1> probes_by_value{};
    bool flag_zero = false;  // a stash flag the probe read is 0
    // Reads candidate t as a member of the value-`value` partition.
    auto probe = [&](uint32_t t, uint64_t value) {
      ++probes_total;
      ++probes_by_value[value];
      const size_t idx = cand.idx[t];
      charge.OffchipRead();
      if (counters_.PeekTag(idx) != tag_nibble && stash_empty) {
        // The fingerprint proves the occupant is a different key, and with
        // the stash empty its flag can never matter — so skip the physical
        // DRAM touch while charging the read the paper's model performs
        // (its hardware has no tags; accounting stays bit-identical).
        return false;
      }
      const Bucket& b = table_[idx];
      if (!b.stash_flag) flag_zero = true;
      if (!(b.key == key)) return false;
      if (out != nullptr) *out = b.value;
      if constexpr (!std::is_null_pointer_v<HitOut>) *hit_idx = idx;
      return true;
    };
    // Returns the partition value the key was found in, or -1.
    const int32_t hit_value = [&]() -> int32_t {
      // Principle 1 (Bloom rule): sound whenever counters cannot silently
      // return to true zero, i.e. in kDisabled and kTombstone modes.
      if (opts_.lookup_pruning_enabled && any_zero &&
          opts_.deletion_mode != DeletionMode::kResetCounters) {
        return -1;
      }
      if (!opts_.lookup_pruning_enabled) {
        for (uint32_t t = 0; t < d; ++t) {
          if (counter[t] == 0) continue;  // empty / tombstoned: no live copy
          // A torn optimistic read may see any nibble; keep the tally index
          // in range (the result is discarded anyway).
          const uint64_t value = std::min<uint64_t>(counter[t], kMaxHashes);
          if (probe(t, value)) return static_cast<int32_t>(value);
        }
        return -1;
      }
      // Principles 2+3: per-value partitions; skip impossible ones; probe
      // at most S - V + 1 members of the rest.
      for (uint64_t value = d; value >= 1; --value) {
        uint32_t members[kMaxHashes];
        uint32_t s = 0;
        for (uint32_t t = 0; t < d; ++t) {
          if (counter[t] == value) members[s++] = t;
        }
        if (s < value) continue;  // impossible partition
        const uint32_t probes = s - static_cast<uint32_t>(value) + 1;
        for (uint32_t i = 0; i < probes; ++i) {
          if (probe(members[i], value)) return static_cast<int32_t>(value);
        }
      }
      return -1;
    }();
    if constexpr (kMetricsEnabled) {
      sink.RecordLookupOutcome(probes_total, hit_value);
      for (uint32_t val = 1; val <= d; ++val) {
        sink.RecordPartitionProbes(val, probes_by_value[val]);
      }
    }
    if (hit_value >= 0) return ProbeOutcome::kHit;
    bool all_ones = true;
    for (uint32_t t = 0; t < d; ++t) all_ones &= counter[t] == 1;
    return ShouldProbeStash(opts_, stash_empty, any_zero, all_ones,
                            [&] { return flag_zero; })
               ? ProbeOutcome::kCheckStash
               : ProbeOutcome::kMiss;
  }

  // The layout: d * buckets_per_table one-slot buckets and their counters
  // (with fingerprint nibbles). Members of the chassis come first.
  std::vector<Bucket> table_;
  TagCounterArray counters_;
  // Multi-writer support: non-owning striped writer-lock array attached by
  // the multi-writer wrapper (null in single-writer use). Congruent with
  // seq_ by construction (both size via SeqlockArray::StripesFor), so a
  // held lock stripe owns exactly one seqlock stripe's writer rights.
  LockStripeArray* locks_ = nullptr;
  // Storage epochs retired by Rehash while a seqlock was attached. Never
  // accessed again (the CounterArray's stats pointer inside is dangling by
  // design) — held only so lagging optimistic readers dereference live
  // memory; freed when the table is destroyed.
  struct RetiredStorage {
    std::vector<Bucket> table;
    TagCounterArray counters;
  };
  std::vector<RetiredStorage> retired_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_MCCUCKOO_TABLE_H_
