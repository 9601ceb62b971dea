// Off-chip stash for insertion failures (paper §III.E).
//
// When a kick-out chain exceeds maxloop, the in-hand item is parked in the
// stash instead of triggering a full rehash. McCuckoo's stash lives in
// abundant off-chip memory, so unlike the classic on-chip 4-entry stash it
// can absorb large insertion surges; the cost of probing it is contained by
// the screening rules in the table (counters + per-bucket flags). The stash
// itself is hash-organized ("more advanced hash techniques", §III.E), so one
// probe costs one off-chip access — the table charges that access.
//
// ShouldProbeStash below is the screen itself, written once for every
// McCuckoo lookup path (scalar, batched, optimistic, striped, and the
// write paths that first locate a key).

#ifndef MCCUCKOO_CORE_STASH_H_
#define MCCUCKOO_CORE_STASH_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/config.h"

namespace mccuckoo {

/// The §III.E/F stash screen: whether a main-table miss must still probe
/// the stash. A stashed key saw all-ones counters and set the flag of
/// every candidate, so each of these facts, gathered per candidate (per
/// candidate bucket in the blocked table) during the probe, can rule the
/// stash out:
///  * `any_true_zero` — a candidate holds no occupant and no tombstone;
///  * `all_ones` — every candidate counter is 1 (blocked: every slot
///    counter of every candidate bucket);
///  * `flag_zero()` — a stash flag the probe read is 0. Only the flags of
///    buckets the probe read are trustworthy (§III.F). Called last, and
///    only when the counter rules pass, so callers may read flags lazily.
/// Without deletions counters never fall back to 0 nor does a sole copy
/// gain copies, so anything but all-ones rules the stash out; with
/// tombstones a true zero still proves "never inserted". The on-chip CHS
/// stash is probed for free, and a disabled screen probes on every miss.
template <typename FlagZero>
bool ShouldProbeStash(const TableOptions& opts, bool stash_empty,
                      bool any_true_zero, bool all_ones, FlagZero&& flag_zero) {
  if (stash_empty) return false;  // the stash size is an on-chip register
  if (opts.stash_kind == StashKind::kOnchipChs) return true;
  if (!opts.stash_screen_enabled) return true;
  if (opts.deletion_mode == DeletionMode::kDisabled && !all_ones) {
    return false;
  }
  if (opts.deletion_mode == DeletionMode::kTombstone && any_true_zero) {
    return false;
  }
  return !flag_zero();
}

/// Hash-organized overflow store. Uncharged: callers (the tables) account
/// the off-chip accesses so screening decisions stay in one place.
template <typename Key, typename Value>
class Stash {
 public:
  /// Adds (key, value). Returns false if the key was already stashed (the
  /// existing value is replaced).
  bool Insert(const Key& key, const Value& value) {
    auto [it, inserted] = items_.insert_or_assign(key, value);
    (void)it;
    return inserted;
  }

  /// Looks `key` up; copies the value into `*out` (if non-null) when found.
  bool Find(const Key& key, Value* out) const {
    auto it = items_.find(key);
    if (it == items_.end()) return false;
    if (out != nullptr) *out = it->second;
    return true;
  }

  /// Removes `key`. Returns whether it was present.
  bool Erase(const Key& key) { return items_.erase(key) > 0; }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Snapshot of the stashed pairs (for draining / flag rebuilds).
  std::vector<std::pair<Key, Value>> Items() const {
    return {items_.begin(), items_.end()};
  }

  void Clear() { items_.clear(); }

 private:
  std::unordered_map<Key, Value> items_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_STASH_H_
