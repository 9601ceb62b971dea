// The lookup entry points both McCuckoo tables share.
//
// Each table defines its lookup once, as its main-table probe body
// ProbeMain (Algorithm 2's counter-partition probe ending in the §III.E/F
// stash screen). Everything around that body is the same for both tables
// and is written here once: the scalar and batched lookups (charged or
// uncharged), the stash step after a kCheckStash probe, and the adapter
// that runs the probe under the seqlock read protocol of seqlock.h.

#ifndef MCCUCKOO_CORE_LOOKUP_PATHS_H_
#define MCCUCKOO_CORE_LOOKUP_PATHS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <type_traits>

#include "src/core/seqlock.h"
#include "src/mem/access_stats.h"
#include "src/obs/latency_recorder.h"
#include "src/obs/metrics.h"

namespace mccuckoo {

/// Static lookup paths over a table that befriends LookupPaths<Table> and
/// provides ProbeMain(key, cand, out, charge, sink) -> ProbeOutcome,
/// ComputeCandidates, StageCandidates, Candidates, kBatchTile,
/// seqlock_domain() (the bucket count candidates index into) and the
/// members stash_, metrics_, latency_, seq_ and opts_. `Charge` is the
/// table's StatsCharge or NoCharge (src/mem/access_stats.h). Only `Table`
/// may call these: its public Find* methods are the API.
template <typename Table>
class LookupPaths {
  friend Table;

  /// Find and FindNoStats: the lookup body over one key's candidates, its
  /// metrics recorded on the stack and published once.
  template <typename Key, typename Value, typename Charge>
  static bool One(const Table& t, const Key& key, Value* out, Charge charge) {
    LookupRecord rec;
    const bool hit = Lookup(t, key, t.ComputeCandidates(key), out, charge, rec);
    rec.FlushTo(*t.metrics_);
    return hit;
  }

  /// FindBatch and FindBatchNoStats. Lookup metrics accumulate on the
  /// stack and publish once per batch: same totals as per-key recording, a
  /// fraction of the atomic RMWs.
  template <typename Key, typename Value, typename Charge>
  static size_t Batch(const Table& t, std::span<const Key> keys, Value* out,
                      bool* found, Charge charge) {
    ScopedLatencySample lat(t.latency_.get(), LatencyOp::kFindBatch);
    constexpr size_t kTile = Table::kBatchTile;
    size_t hits = 0;
    std::array<typename Table::Candidates, kTile> cand;
    LookupTally tally;
    for (size_t base = 0; base < keys.size(); base += kTile) {
      const size_t n = std::min(kTile, keys.size() - base);
      t.StageCandidates(&keys[base], n, cand.data(), /*for_write=*/false);
      for (size_t i = 0; i < n; ++i) {
        const bool hit =
            Lookup(t, keys[base + i], cand[i],
                   out != nullptr ? &out[base + i] : nullptr, charge, tally);
        if (found != nullptr) found[base + i] = hit;
        hits += hit ? 1 : 0;
      }
    }
    tally.FlushTo(*t.metrics_);
    return hits;
  }

  /// TryFindOptimistic: ValidatedLookup over one key.
  template <typename Key, typename Value>
  static OptimisticResult Optimistic(const Table& t, const Key& key,
                                     Value* out) {
    const ValidatedResult r = Validated<1, LookupRecord>(
        t, std::span<const Key>(&key, 1), out, nullptr,
        [&](auto* cand) { cand[0] = t.ComputeCandidates(key); });
    return r.result == OptimisticResult::kHit && r.hits == 0
               ? OptimisticResult::kMiss
               : r.result;
  }

  /// TryFindBatchOptimistic: ValidatedLookup over one tile, all or nothing.
  template <typename Key, typename Value>
  static OptimisticResult OptimisticBatch(const Table& t,
                                          std::span<const Key> keys,
                                          Value* out, bool* found,
                                          size_t* hits) {
    ScopedLatencySample lat(t.latency_.get(), LatencyOp::kFindBatch);
    const ValidatedResult r = Validated<Table::kBatchTile, LookupTally>(
        t, keys, out, found, [&](auto* cand) {
          t.StageCandidates(keys.data(), keys.size(), cand,
                            /*for_write=*/false);
        });
    *hits = r.hits;
    return r.result;
  }

  /// A whole lookup over precomputed candidates: the main-table probe plus,
  /// when the stash screen allows it, the stash probe.
  template <typename Key, typename Cand, typename Value, typename Charge,
            typename Sink>
  static bool Lookup(const Table& t, const Key& key, const Cand& cand,
                     Value* out, Charge charge, Sink& sink) {
    switch (t.ProbeMain(key, cand, out, charge, sink)) {
      case ProbeOutcome::kHit:
        return true;
      case ProbeOutcome::kMiss:
        return false;
      case ProbeOutcome::kCheckStash:
        break;
    }
    charge.StashProbe();
    const bool hit = t.stash_.Find(key, out);
    sink.RecordStashProbe(hit);
    return hit;
  }

  /// ValidatedLookup over the uncharged probe, with `stage` computing the
  /// keys' candidates.
  template <size_t kMaxKeys, typename Sink, typename Key, typename Value,
            typename Stage>
  static ValidatedResult Validated(const Table& t, std::span<const Key> keys,
                                   Value* out, bool* found, Stage&& stage) {
    static_assert(std::is_trivially_copyable_v<Key>,
                  "optimistic reads require trivially copyable keys");
    using Cand = typename Table::Candidates;
    return ValidatedLookup<kMaxKeys, Sink, Cand>(
        t.seq_, keys.size(),
        [&](Cand* cand) {
          stage(cand);
          return StagedGeometry{t.opts_.num_hashes, t.seqlock_domain()};
        },
        [&](size_t i, const Cand& cand, Value* v, Sink& sink) {
          return t.ProbeMain(keys[i], cand, v, NoCharge{}, sink);
        },
        *t.metrics_, out, found);
  }
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_LOOKUP_PATHS_H_
