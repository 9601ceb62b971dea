// Blocked multi-copy Cuckoo table (B-McCuckoo, paper §III.G).
//
// The multi-copy idea applied to the blocked layout: d sub-tables whose
// buckets hold l slots each (d = 3, l = 3 in the paper), one on-chip
// counter per *slot*, and one stash flag per *bucket*. Insertion follows
// Algorithm 1 (Fig 6): place one copy into an empty slot of every candidate
// bucket; if no copy found a home, overwrite counter-3 slots of the buckets
// with the highest counter sum while the inserted item trails the victim by
// two copies, then counter-2 slots, and only when all d*l candidate slot
// counters are 1 fall back to the random walk / stash. Lookup follows
// Algorithm 2: a bucket whose counters sum to zero is skipped entirely
// (bucket-level Bloom rule); otherwise the whole bucket is fetched in one
// access and scanned. Deletion follows Algorithm 3 and performs zero
// off-chip writes.
//
// Slot hints: each record stores, for every other sub-table, which slot its
// copy there occupies ((d-1) * log2(l) bits per slot, §III.G). The paper
// admits the hints "cannot be fully tracked" once third parties overwrite
// hinted slots; we therefore use them only to order the disambiguating
// bucket reads (a stale hint costs nothing — the read it orders returns the
// whole bucket and reveals the truth), never as an unverified source for
// counter updates. All placement decisions are made from the on-chip
// counters *before* any off-chip write, so every copy is written exactly
// once, hints included.

#ifndef MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_
#define MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/bits.h"
#include "src/core/bucket_header.h"
#include "src/core/config.h"
#include "src/core/counter_array.h"
#include "src/core/eviction.h"
#include "src/core/seqlock.h"
#include "src/core/stash.h"
#include "src/core/table_chassis.h"
#include "src/hash/hash_family.h"
#include "src/mem/access_stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_recorder.h"

namespace mccuckoo {

/// Blocked multi-copy cuckoo hash table (d hashes, l slots per bucket).
/// Everything but the layout and the insertion algorithms is the shared
/// chassis (table_chassis.h).
template <typename Key, typename Value, typename Hasher = BobHasher>
  requires SeedableHasher<Hasher, Key>
class BlockedMcCuckooTable
    : public McCuckooChassis<BlockedMcCuckooTable<Key, Value, Hasher>, Key,
                             Value, Hasher> {
 public:
  using HasherType = Hasher;

  /// Sentinel for "no copy in that sub-table" in a record's hint array.
  static constexpr uint8_t kNoHint = 0xFF;

  /// One record slot. `hint[t]` is the slot index of this item's copy in
  /// sub-table t when that copy existed at write time (kNoHint otherwise);
  /// the entry for the record's own sub-table is unused.
  struct Slot {
    Key key{};
    Value value{};
    std::array<uint8_t, kMaxHashes> hint{kNoHint, kNoHint, kNoHint, kNoHint};
  };

 private:
  using Chassis = McCuckooChassis<BlockedMcCuckooTable, Key, Value, Hasher>;
  friend Chassis;
  using typename Chassis::Candidates;
  using Chassis::ComputeCandidates;
  using Chassis::bfs_throttle_;
  using Chassis::family_;
  using Chassis::kick_history_;
  using Chassis::kNoBucket;
  using Chassis::opts_;
  using Chassis::redundant_writes_;
  using Chassis::rng_;
  using Chassis::SeqOpen;
  using Chassis::size_;
  using Chassis::spans_;
  using Chassis::stash_;
  using Chassis::StashOverflow;
  using Chassis::stats_;
  using Chassis::trace_;

  // Nested aggregates are defined before the operations: the batched and
  // candidate-reusing member signatures below mention them.

  /// A (sub-table, bucket, slot) position, held as (bucket index, slot).
  struct Position {
    size_t bucket = 0;
    uint32_t slot = 0;
    bool operator==(const Position& o) const {
      return bucket == o.bucket && slot == o.slot;
    }
  };

  struct CopySet {
    std::array<Position, kMaxHashes> pos;
    uint32_t count = 0;
  };

 public:
  /// Constructs a table; `options` must satisfy CheckOptions() (aborts
  /// otherwise — use Create() for untrusted configuration).
  explicit BlockedMcCuckooTable(const TableOptions& options)
      : Chassis(options, /*rng_salt=*/0xB10CB10CB10CB10Cull),
        slots_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table * options.slots_per_bucket),
        flags_(static_cast<size_t>(options.num_hashes) *
               options.buckets_per_table),
        counters_(slots_.size(), options.slots_per_bucket, options.num_hashes,
                  stats_.get()),
        probe_simd_(ResolveProbeKind(options.probe) == ProbeKind::kSimd) {}

  /// Which tag-probe kernel this instance resolved to ("simd"/"scalar");
  /// bench keys embed it.
  const char* probe_variant() const { return probe_simd_ ? "simd" : "scalar"; }

 private:
  // --- chassis hooks (see table_chassis.h) -------------------------------

  static constexpr const char* kName = "BlockedMcCuckooTable";
  /// Bucket headers keep each occupant's whole fingerprint byte.
  static constexpr uint8_t kTagMask = 0xFFu;

  static Status CheckLayout(const TableOptions& options) {
    if (options.slots_per_bucket < 2) {
      return Status::InvalidArgument(
          "BlockedMcCuckooTable needs slots_per_bucket >= 2; "
          "use McCuckooTable");
    }
    return Status::OK();
  }

  size_t num_buckets() const { return flags_.size(); }
  const Slot& SlotAt(size_t idx) const { return slots_[idx]; }
  bool FlagAt(size_t bucket) const { return flags_.Test(bucket); }

  /// Word-at-a-time scan of the set bits; one charged write per flag
  /// cleared.
  void ClearStashFlags() {
    flags_.ForEachSetBit([&](size_t bucket) {
      SeqOpen(bucket);
      ++stats_->offchip_writes;
    });
    flags_.ClearAll();
  }

  /// Rewrites every copy of the key found at `hit` (InsertOrAssign).
  void AssignCopies(const Key& key, const Value& value, const Position& hit) {
    const CopySet copies = LocateAllCopies(key, hit, CounterAt(hit));
    for (uint32_t i = 0; i < copies.count; ++i) {
      WriteSlotValue(copies.pos[i], key, value);
    }
  }

  /// Resets (or tombstones) every copy's counter (Algorithm 3, Fig 8):
  /// zero off-chip writes.
  void EraseCopies(const Key& key, const Position& hit) {
    const CopySet copies = LocateAllCopies(key, hit, CounterAt(hit));
    for (uint32_t i = 0; i < copies.count; ++i) {
      SeqOpen(copies.pos[i].bucket);
      const size_t idx = SlotIndex(copies.pos[i]);
      if (opts_.deletion_mode == DeletionMode::kTombstone) {
        counters_.MarkDeleted(idx);
      } else {
        counters_.Set(idx, 0);
      }
    }
  }

  /// Takes the rebuilt slots, stash flags and headers pointer-wise; with
  /// `retire` the replaced storage is parked for lagging optimistic
  /// readers.
  void AdoptStorage(BlockedMcCuckooTable& rebuilt, bool retire) {
    slots_.swap(rebuilt.slots_);
    flags_.Swap(rebuilt.flags_);
    counters_.SwapStorage(rebuilt.counters_);
    probe_simd_ = rebuilt.probe_simd_;
    if (retire) {
      retired_.push_back(RetiredStorage{std::move(rebuilt.slots_),
                                        std::move(rebuilt.flags_),
                                        std::move(rebuilt.counters_)});
    }
  }

  // --- batching stage 1: hash + prefetch ---------------------------------

  /// Hashes `n` keys via the family's batch entry point and prefetches
  /// every candidate bucket's slot lines (a bucket spans l * sizeof(Slot)
  /// bytes, possibly several cache lines) plus the bucket's counter words.
  /// Pure hint stage; charges nothing.
  void StageCandidates(const Key* keys, size_t n, Candidates* cand,
                       bool for_write) const {
    std::array<std::array<uint64_t, kMaxHashes>, Chassis::kBatchTile> buckets;
    std::array<uint8_t, Chassis::kBatchTile> tags;
    family_.BucketsBatch(keys, n, buckets.data(), tags.data());
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    for (size_t i = 0; i < n; ++i) {
      cand[i].tag = tags[i];
      for (uint32_t t = 0; t < d; ++t) {
        cand[i].idx[t] = static_cast<size_t>(t) * opts_.buckets_per_table +
                            buckets[i][t];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        // One line covers the bucket's whole header (tags, counters,
        // tombstones) — the old layout needed two counter words plus a
        // tombstone word from separate allocations.
        counters_.Prefetch(cand[i].idx[t] * l);
        // The stash-flag word is consulted during every probed bucket's
        // scan; packed flags make it one explicit line.
        __builtin_prefetch(flags_.WordAddr(cand[i].idx[t]), 0, 1);
      }
    }
    const size_t bucket_bytes = static_cast<size_t>(l) * sizeof(Slot);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d; ++t) {
        const char* base =
            reinterpret_cast<const char*>(&slots_[cand[i].idx[t] * l]);
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

  /// The table's one lookup body: Algorithm 2's probe over precomputed
  /// candidates, then the §III.E/F stash screen (see
  /// McCuckooTable::ProbeMain for `charge`, `sink`, `out` and the
  /// outcome). On a hit the write paths get the slot in `*hit_pos`.
  ///
  /// Physically this touches one header line per candidate bucket plus the
  /// slot lines of tag-matching occupied slots; the stash-flag words are
  /// read only on the miss path, and only once the counter rules let the
  /// stash through. The *modeled* accounting is the per-slot model's: d*l
  /// on-chip counter reads (doubled by the tombstone probes in kTombstone
  /// mode) and one off-chip read per probed bucket. Pruning skips zero-sum
  /// buckets; without pruning only buckets with nothing live (no
  /// occupants, no tombstones) are skipped. Racing writers may tear the
  /// header reads — optimistic callers discard the result via validation,
  /// and slot indices stay in range regardless (meta/tag bytes past l are
  /// never written, so no match bit can point there).
  template <typename Charge, typename MetricsSink,
            typename HitOut = std::nullptr_t>
  ProbeOutcome ProbeMain(const Key& key, const Candidates& cand, Value* out,
                         Charge charge, MetricsSink& sink,
                         HitOut hit_pos = nullptr) const {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    charge.OnchipReads(
        static_cast<uint64_t>(d) * l *
        (opts_.deletion_mode == DeletionMode::kTombstone ? 2 : 1));

    const BucketHeader* hdr[kMaxHashes] = {};
    uint64_t meta[kMaxHashes];
    uint32_t match[kMaxHashes];
    for (uint32_t t = 0; t < d; ++t) {
      hdr[t] = &counters_.HeaderAt(cand.idx[t]);
      // Start the candidate slot lines toward the core while the headers
      // are screened: the hit path's header -> slot dependence is the
      // longest miss chain left. A pure overlap hint — the modeled reads
      // are decided by the probe rules alone, never by what is cached.
      __builtin_prefetch(&slots_[cand.idx[t] * l], 0, 1);
    }
    if (probe_simd_) {
      SimdTagMatchMasks(hdr, d, cand.tag, match);
    } else {
      for (uint32_t t = 0; t < d; ++t) {
        match[t] = TagMatchMaskScalar(*hdr[t], cand.tag);
      }
    }
    for (uint32_t t = 0; t < d; ++t) meta[t] = HdrMetaWord(*hdr[t]);

    // Whether the probe reads bucket t (one off-chip fetch).
    const auto probed = [&](uint32_t t) {
      return (meta[t] & kHdrCounterRep) != 0 ||
             (!opts_.lookup_pruning_enabled && meta[t] != 0);
    };
    uint32_t probes_total = 0;
    for (uint32_t t = 0; t < d; ++t) {
      if (!probed(t)) continue;
      charge.OffchipRead();
      ++probes_total;
      for (uint32_t m = match[t]; m != 0; m &= m - 1) {
        const uint32_t s = static_cast<uint32_t>(__builtin_ctz(m));
        const Slot& slot = slots_[cand.idx[t] * l + s];
        if (slot.key == key) {
          if (out != nullptr) *out = slot.value;
          if constexpr (!std::is_null_pointer_v<HitOut>) {
            *hit_pos = Position{cand.idx[t], s};
          }
          if constexpr (kMetricsEnabled) {
            sink.RecordLookupOutcome(
                probes_total,
                static_cast<int32_t>((meta[t] >> (8 * s)) & kHdrCounterMask));
          }
          return ProbeOutcome::kHit;
        }
      }
    }
    if constexpr (kMetricsEnabled) sink.RecordLookupOutcome(probes_total, -1);
    // The empty() read is a plain size check, memory-safe even when racing
    // a writer; optimistic callers validate the aux stripe before trusting
    // it.
    bool any_true_zero = false, all_ones = true;
    for (uint32_t t = 0; t < d; ++t) {
      if (meta[t] == 0) any_true_zero = true;  // no occupants, no tombstones
      if ((meta[t] & kHdrCounterRep) != counters_.ones_word()) all_ones = false;
    }
    return ShouldProbeStash(opts_, stash_.empty(), any_true_zero, all_ones,
                            [&] {
                              for (uint32_t t = 0; t < d; ++t) {
                                if (probed(t) && !flags_.Test(cand.idx[t])) {
                                  return true;
                                }
                              }
                              return false;
                            })
               ? ProbeOutcome::kCheckStash
               : ProbeOutcome::kMiss;
  }

  size_t SlotIndex(const Position& p) const {
    return p.bucket * opts_.slots_per_bucket + p.slot;
  }

  uint64_t CounterAt(const Position& p) const {
    return counters_.Get(SlotIndex(p));
  }

  static uint32_t TableOf(size_t bucket, uint64_t buckets_per_table) {
    return static_cast<uint32_t>(bucket / buckets_per_table);
  }

  // --- charged memory choke points ----------------------------------------

  /// Fetches a whole bucket: one off-chip access regardless of l ([33]).
  void ChargeBucketRead() { ++stats_->offchip_reads; }

  /// Writes one slot (record + hints share the slot's memory word) and
  /// refreshes its header tag in the same seqlock window, so readers never
  /// see a fresh key behind a stale fingerprint. The tag store is layout
  /// state, not a modeled access (uncharged).
  void WriteSlot(const Position& p, const Slot& record) {
    SeqOpen(p.bucket);
    ++stats_->offchip_writes;
    const size_t idx = SlotIndex(p);
    slots_[idx] = record;
    counters_.SetTag(idx, family_.TagOf(record.key));
  }

  /// Value-only update preserving the stored hints.
  void WriteSlotValue(const Position& p, const Key& key, const Value& value) {
    SeqOpen(p.bucket);
    ++stats_->offchip_writes;
    Slot& s = slots_[SlotIndex(p)];
    s.key = key;
    s.value = value;
  }

  void SetFlag(size_t bucket) {
    SeqOpen(bucket);
    ++stats_->offchip_writes;
    flags_.Set(bucket);
  }

  // --- insertion -------------------------------------------------------------

  /// Algorithm 1's placement phases, decided entirely on-chip before any
  /// write. Returns the number of copies placed (0 = collision).
  uint32_t TryPlace(const Key& key, const Value& value,
                    const Candidates& cand) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;

    std::array<Position, kMaxHashes> placed{};
    std::array<bool, kMaxHashes> bucket_taken{};
    uint32_t n_placed = 0;

    // Phase 1: one copy into an empty slot of every candidate bucket.
    for (uint32_t t = 0; t < d; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        const Position p{cand.idx[t], s};
        if (counters_.Get(SlotIndex(p)) == 0) {
          placed[n_placed++] = p;
          bucket_taken[t] = true;
          break;
        }
      }
    }

    // Phase 2: overwrite redundant copies, most-redundant victim first,
    // while the victim keeps a two-copy lead (V >= n_placed + 2). Counters
    // are re-read per round (one insert can hit the same victim twice).
    while (n_placed < d) {
      int best_t = -1;
      Position best_pos{};
      uint64_t best_v = 0;
      uint64_t best_sum = 0;
      for (uint32_t t = 0; t < d; ++t) {
        if (bucket_taken[t]) continue;
        uint64_t sum = 0;
        uint64_t bucket_best_v = 0;
        uint32_t bucket_best_s = 0;
        for (uint32_t s = 0; s < l; ++s) {
          const uint64_t c =
              counters_.Get(cand.idx[t] * l + s);
          sum += c;
          if (c > bucket_best_v) {
            bucket_best_v = c;
            bucket_best_s = s;
          }
        }
        // Bucket availability is judged by the counter sum (§III.G); the
        // victim inside it is the highest-counter slot.
        if (bucket_best_v > best_v ||
            (bucket_best_v == best_v && sum > best_sum)) {
          best_v = bucket_best_v;
          best_sum = sum;
          best_t = static_cast<int>(t);
          best_pos = Position{cand.idx[t], bucket_best_s};
        }
      }
      if (best_t < 0 || best_v < 2 || best_v < n_placed + 2) break;
      OverwriteRedundantCopy(best_pos, best_v);
      placed[n_placed++] = best_pos;
      bucket_taken[best_t] = true;
    }

    if (n_placed == 0) return 0;
    CommitPlacement(key, value, placed, n_placed);
    return n_placed;
  }

  /// Writes the record once per placed copy (hints included) and sets the
  /// copies' counters.
  void CommitPlacement(const Key& key, const Value& value,
                       const std::array<Position, kMaxHashes>& placed,
                       uint32_t n_placed) {
    Slot record;
    record.key = key;
    record.value = value;
    record.hint.fill(kNoHint);
    for (uint32_t i = 0; i < n_placed; ++i) {
      const uint32_t t = TableOf(placed[i].bucket, opts_.buckets_per_table);
      record.hint[t] = static_cast<uint8_t>(placed[i].slot);
    }
    for (uint32_t i = 0; i < n_placed; ++i) {
      WriteSlot(placed[i], record);  // opens the bucket's stripe
      counters_.Set(SlotIndex(placed[i]), n_placed);
    }
    redundant_writes_ += n_placed - 1;
  }

  /// Displaces the redundant copy at `victim` (counter `v` >= 2): reads its
  /// bucket to learn the victim's key and hints, then decrements the
  /// victim's other copies. The slot itself is left for the caller to
  /// overwrite (counter updated by CommitPlacement).
  void OverwriteRedundantCopy(const Position& victim, uint64_t v) {
    assert(v >= 2);
    ChargeBucketRead();
    const Slot record = slots_[SlotIndex(victim)];
    CopySet others = LocateOtherCopies(record.key, victim, v, &record.hint);
    for (uint32_t i = 0; i < others.count; ++i) {
      SeqOpen(others.pos[i].bucket);
      counters_.Set(SlotIndex(others.pos[i]), v - 1);
    }
  }

  /// Finds the v-1 positions besides `known` holding copies of `key` (all
  /// counters equal v). Candidate slots are the value-v slots of key's
  /// candidate buckets; buckets are resolved hint-first, and a bucket whose
  /// remaining candidates must all be copies (pigeonhole) is not read.
  CopySet LocateOtherCopies(const Key& key, const Position& known, uint64_t v,
                            const std::array<uint8_t, kMaxHashes>* hints) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    Candidates cand = ComputeCandidates(key);

    // Group: candidate slots with counter == v, per bucket, excluding
    // `known` and excluding the bucket that contains `known` (one copy per
    // bucket at most).
    struct BucketGroup {
      size_t bucket;
      uint32_t table;
      std::array<uint32_t, 8> slots;
      uint32_t n_slots = 0;
      bool hinted = false;
    };
    // Hinted buckets are queued first: their read almost always confirms a
    // copy immediately.
    std::array<BucketGroup, kMaxHashes> groups{};
    uint32_t n_groups = 0;
    uint32_t total_slots = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t t = 0; t < d; ++t) {
        if (cand.idx[t] == known.bucket) continue;
        const bool hinted = hints != nullptr && (*hints)[t] != kNoHint;
        if (hinted != (pass == 0)) continue;
        BucketGroup g{};
        g.bucket = cand.idx[t];
        g.table = t;
        for (uint32_t s = 0; s < l; ++s) {
          if (counters_.Get(g.bucket * l + s) == v) g.slots[g.n_slots++] = s;
        }
        if (g.n_slots == 0) continue;
        g.hinted = hinted;
        groups[n_groups++] = g;
        total_slots += g.n_slots;
      }
    }

    const uint32_t need = static_cast<uint32_t>(v) - 1;
    CopySet out{};
    if (need == 0) return out;
    assert(total_slots >= need);

    uint32_t confirmed = 0;
    uint32_t unresolved = total_slots;
    for (uint32_t gi = 0; gi < n_groups && confirmed < need; ++gi) {
      const BucketGroup& g = groups[gi];
      // Pigeonhole: if every unresolved candidate slot must be a copy,
      // take them without reading. (A key has at most one copy per bucket,
      // so this can only trigger when each remaining group has one slot.)
      if (unresolved == need - confirmed) {
        bool single_slots = true;
        for (uint32_t gj = gi; gj < n_groups; ++gj) {
          if (groups[gj].n_slots != 1) single_slots = false;
        }
        if (single_slots) {
          for (uint32_t gj = gi; gj < n_groups; ++gj) {
            out.pos[out.count++] =
                Position{groups[gj].bucket, groups[gj].slots[0]};
            ++confirmed;
          }
          break;
        }
      }
      ChargeBucketRead();
      for (uint32_t i = 0; i < g.n_slots; ++i) {
        const Position p{g.bucket, g.slots[i]};
        if (slots_[SlotIndex(p)].key == key) {
          out.pos[out.count++] = p;
          ++confirmed;
          break;  // at most one copy per bucket
        }
      }
      unresolved -= g.n_slots;
    }
    assert(confirmed == need);
    return out;
  }

  CopySet LocateAllCopies(const Key& key, const Position& known, uint64_t v) {
    // The found record's stored hints order the disambiguation reads.
    const std::array<uint8_t, kMaxHashes> hints =
        slots_[SlotIndex(known)].hint;
    CopySet out = LocateOtherCopies(key, known, v, &hints);
    out.pos[out.count++] = known;
    return out;
  }

  /// Random walk at slot granularity: eviction targets are sole copies
  /// (all candidate slot counters are 1 when this is reached). The victim
  /// bucket follows the configured policy — uniform random, MinCounter's
  /// coldest, or bubbling's deterministic level cycle — the slot within it
  /// is uniform. On maxloop overrun the in-hand item gets one final
  /// placement attempt and is otherwise stashed — candidate buckets
  /// provably all-ones.
  InsertResult RandomWalkInsert(Key key, Value value,
                                uint32_t* chain_len_out) {
    size_t exclude_bucket = kNoBucket;
    int32_t from_level = -1;  // bubbling: level the in-hand item left
    uint32_t chain = 0;
    KickChainEvent ev{};  // populated only when metrics are compiled in
    for (uint32_t loop = 0; loop < opts_.maxloop; ++loop) {
      Candidates cand = ComputeCandidates(key);
      if (loop > 0) {
        const uint32_t placed = TryPlace(key, value, cand);
        if (placed > 0) {
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
      const uint32_t t =
          opts_.eviction_policy == EvictionPolicy::kBubble
              ? PickBubbleVictim(cand.idx, opts_.num_hashes,
                                 exclude_bucket, from_level)
              : PickVictim(cand.idx, opts_.num_hashes, exclude_bucket,
                           kick_history_, rng_);
      const uint32_t s =
          static_cast<uint32_t>(rng_.Below(opts_.slots_per_bucket));
      const Position p{cand.idx[t], s};
      if constexpr (kMetricsEnabled) {
        if (chain < kMaxTraceSteps) {
          ev.step[chain] = KickStep{
              static_cast<uint64_t>(cand.idx[t]),
              static_cast<uint32_t>(counters_.PeekCounter(SlotIndex(p)))};
        }
      }
      ChargeBucketRead();
      Slot victim = slots_[SlotIndex(p)];
      Slot record;
      record.key = key;
      record.value = value;
      record.hint.fill(kNoHint);
      record.hint[t] = static_cast<uint8_t>(s);
      WriteSlot(p, record);
      // Counter stays 1: the slot still holds a sole copy.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(cand.idx[t]);
      exclude_bucket = cand.idx[t];
      from_level = static_cast<int32_t>(t);
      key = std::move(victim.key);
      value = std::move(victim.value);
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

  /// Counter-aware BFS at slot granularity (see McCuckooTable::BfsInsert
  /// for the terminal rules). Node ids are global slot indices. Entered
  /// only when TryPlace placed nothing, which proves every candidate slot
  /// of the in-hand key holds a sole copy (phase 1 fills empties, phase 2
  /// with n_placed == 0 takes any counter >= 2), so all d*l candidate
  /// slots are valid interior roots. Expanding a node costs one charged
  /// bucket fetch (occupant key + hints); the occupant's alternate buckets
  /// are screened slot-by-slot entirely on-chip.
  InsertResult BfsInsert(const Key& key, const Value& value,
                         const Candidates& cand, uint32_t* chain_len_out,
                         uint32_t* nodes_out, uint32_t* budget_out) {
    const uint32_t d = opts_.num_hashes;
    const uint32_t l = opts_.slots_per_bucket;
    std::array<uint64_t, kMaxHashes * 8> roots{};
    uint32_t n_roots = 0;
    for (uint32_t t = 0; t < d; ++t) {
      for (uint32_t s = 0; s < l; ++s) {
        roots[n_roots++] = static_cast<uint64_t>(cand.idx[t] * l + s);
      }
    }
    *budget_out = bfs_throttle_.Budget(BfsNodeBudget(opts_.maxloop));
    const BfsPathResult path = BfsFindPath(
        roots.data(), n_roots, *budget_out,
        [&](uint64_t id, auto&& emit, auto&& terminal) {
          const size_t slot_idx = static_cast<size_t>(id);
          const size_t bucket = slot_idx / l;
          ChargeBucketRead();  // the occupant's record, one bucket fetch
          const Key okey = slots_[slot_idx].key;
          const Candidates oc = ComputeCandidates(okey);
          for (uint32_t t = 0; t < d; ++t) {
            const size_t alt = oc.idx[t];
            if (alt == bucket) continue;
            for (uint32_t s = 0; s < l; ++s) {
              const size_t alt_idx = alt * l + s;
              const uint64_t c = counters_.Get(alt_idx);
              if (c != 1) {
                terminal(alt_idx);  // 0 = free, >= 2 = redundant copy
                return;
              }
              // Overlap the frontier's DRAM latency (see McCuckooTable).
              __builtin_prefetch(&slots_[alt_idx], 0, 1);
              emit(alt_idx);
            }
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
    // Apply backward: the last interior occupant moves into the terminal,
    // each predecessor into its successor, the new key into the root. A
    // relocated occupant is a sole copy, so its record is rewritten with a
    // fresh hint set pointing only at its new position.
    KickChainEvent ev{};
    auto position_of = [l](uint64_t id) {
      return Position{static_cast<size_t>(id) / l,
                      static_cast<uint32_t>(id % l)};
    };
    size_t dst = static_cast<size_t>(path.terminal);
    const uint64_t term_v = counters_.PeekCounter(dst);
    for (size_t i = path.node.size(); i-- > 0;) {
      const size_t src = static_cast<size_t>(path.node[i]);
      const Position dst_pos = position_of(dst);
      Slot record = slots_[src];  // read during the search
      record.hint.fill(kNoHint);
      record.hint[TableOf(dst_pos.bucket, opts_.buckets_per_table)] =
          static_cast<uint8_t>(dst_pos.slot);
      if (dst == static_cast<size_t>(path.terminal) && term_v >= 2) {
        // Redundant terminal: displace one copy of the occupant, which
        // decrements its other copies' counters (zero relocations).
        OverwriteRedundantCopy(dst_pos, term_v);
      }
      WriteSlot(dst_pos, record);  // opens the bucket's stripe
      if (dst == static_cast<size_t>(path.terminal)) {
        counters_.Set(dst, 1);  // the moved item is a sole copy
      }
      // Interior destinations already held a sole copy: counter stays 1.
      ++stats_->kickouts;
      if (kick_history_.enabled()) kick_history_.Increment(src / l);
      if constexpr (kMetricsEnabled) {
        if (i < kMaxTraceSteps) {
          ev.step[i] = KickStep{
              static_cast<uint64_t>(src / l),
              static_cast<uint32_t>(counters_.PeekCounter(src))};
        }
      }
      dst = src;
    }
    const Position root_pos = position_of(path.node.front());
    Slot record;
    record.key = key;
    record.value = value;
    record.hint.fill(kNoHint);
    record.hint[TableOf(root_pos.bucket, opts_.buckets_per_table)] =
        static_cast<uint8_t>(root_pos.slot);
    WriteSlot(root_pos, record);
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

  // The layout: d * buckets_per_table buckets of l slots. Members of the
  // chassis come first.
  std::vector<Slot> slots_;
  // One stash flag per bucket (off-chip). Packed uint64_t words, not
  // std::vector<bool>: the word holding a flag is prefetchable alongside
  // the bucket's slot lines, and rebuilds scan set bits a word at a time.
  BitArray flags_;
  // Per-bucket headers: slot tags + counters + tombstones in one aligned
  // 16-byte block per bucket (see bucket_header.h).
  BucketHeaderArray counters_;
  // Resolved TableOptions::probe — true when lookups use the vector
  // tag-match kernel. Same results and charges either way.
  bool probe_simd_;
  // Storage epochs retired by Rehash while a seqlock was attached. Never
  // accessed again (the CounterArray's stats pointer inside is dangling by
  // design) — held only so lagging optimistic readers dereference live
  // memory; freed when the table is destroyed.
  struct RetiredStorage {
    std::vector<Slot> slots;
    BitArray flags;
    BucketHeaderArray counters;
  };
  std::vector<RetiredStorage> retired_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_BLOCKED_MCCUCKOO_TABLE_H_
