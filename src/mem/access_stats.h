// Memory-hierarchy access accounting.
//
// The paper's headline metrics (Figs 9-14, Tables I-III) are *counts of
// memory accesses* on a two-level hierarchy: a small fast on-chip memory
// holding the counter array, and a large slow off-chip memory holding the
// buckets and the stash. Every table in this library funnels its memory
// traffic through single choke points that bump these counters, so the
// experiment harness measures by taking deltas around operation batches.
//
// Granularity follows the paper (and [33]): touching a bucket — no matter
// how many of its slots — costs one off-chip access, because the whole
// bucket is fetched/written in one memory transaction.

#ifndef MCCUCKOO_MEM_ACCESS_STATS_H_
#define MCCUCKOO_MEM_ACCESS_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace mccuckoo {

/// Running access counters for one table instance.
struct AccessStats {
  uint64_t offchip_reads = 0;   ///< Bucket / stash reads from slow memory.
  uint64_t offchip_writes = 0;  ///< Bucket / stash / flag writes.
  uint64_t onchip_reads = 0;    ///< Counter-array reads (SRAM).
  uint64_t onchip_writes = 0;   ///< Counter-array writes (SRAM).
  uint64_t kickouts = 0;        ///< Item relocations (evictions of a live sole copy).
  uint64_t stash_probes = 0;    ///< Lookups/deletes that had to consult the stash.

  /// Total off-chip traffic.
  uint64_t offchip_total() const { return offchip_reads + offchip_writes; }

  /// Component-wise difference (this - earlier); used to measure one batch.
  AccessStats operator-(const AccessStats& earlier) const {
    AccessStats d;
    d.offchip_reads = offchip_reads - earlier.offchip_reads;
    d.offchip_writes = offchip_writes - earlier.offchip_writes;
    d.onchip_reads = onchip_reads - earlier.onchip_reads;
    d.onchip_writes = onchip_writes - earlier.onchip_writes;
    d.kickouts = kickouts - earlier.kickouts;
    d.stash_probes = stash_probes - earlier.stash_probes;
    return d;
  }

  /// Field-wise equality — the batched operation paths are required to
  /// produce *identical* access accounting to their scalar equivalents
  /// (prefetching warms caches, it never changes the algorithm), and the
  /// differential tests enforce it with this.
  bool operator==(const AccessStats&) const = default;

  AccessStats& operator+=(const AccessStats& other) {
    offchip_reads += other.offchip_reads;
    offchip_writes += other.offchip_writes;
    onchip_reads += other.onchip_reads;
    onchip_writes += other.onchip_writes;
    kickouts += other.kickouts;
    stash_probes += other.stash_probes;
    return *this;
  }

  /// Component-wise sum, symmetric with += (shard/phase aggregation).
  AccessStats operator+(const AccessStats& other) const {
    AccessStats s = *this;
    s += other;
    return s;
  }

  /// One-line human-readable form, e.g.
  /// "offchip_reads=5 offchip_writes=4 onchip_reads=3 onchip_writes=2
  ///  kickouts=1 stash_probes=0" — used by the metric exporters and dumps.
  std::string ToString() const {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "offchip_reads=%llu offchip_writes=%llu onchip_reads=%llu "
                  "onchip_writes=%llu kickouts=%llu stash_probes=%llu",
                  static_cast<unsigned long long>(offchip_reads),
                  static_cast<unsigned long long>(offchip_writes),
                  static_cast<unsigned long long>(onchip_reads),
                  static_cast<unsigned long long>(onchip_writes),
                  static_cast<unsigned long long>(kickouts),
                  static_cast<unsigned long long>(stash_probes));
    return buf;
  }
};

/// The AccessStats charge sinks a lookup body is templated on. Each
/// McCuckoo table has one main-table probe: the paper-model paths (Find,
/// FindBatch, InsertOrAssign, Erase) run it with StatsCharge, the
/// mutation-free reader paths (FindNoStats, the optimistic and striped
/// reads) with NoCharge, whose calls compile to nothing. The probe
/// decisions are the same either way, so both paths agree on hits, values
/// and lookup metrics. Every table charges its stash accesses through
/// StatsCharge too.
struct StatsCharge {
  AccessStats* stats;
  bool offchip_stash;  ///< the stash is off-chip (else the on-chip CHS kind)

  void OnchipReads(uint64_t n) const { stats->onchip_reads += n; }
  void OffchipRead() const { ++stats->offchip_reads; }
  void StashProbe() const {
    ++stats->stash_probes;
    ++(offchip_stash ? stats->offchip_reads : stats->onchip_reads);
  }
  /// One stash mutation (store or erase).
  void StashWrite() const {
    ++(offchip_stash ? stats->offchip_writes : stats->onchip_writes);
  }
};

struct NoCharge {
  void OnchipReads(uint64_t) const {}
  void OffchipRead() const {}
  void StashProbe() const {}
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_MEM_ACCESS_STATS_H_
