// Per-layer probes of the traced run.
//
// Every probe times calls into public functions from outside the program:
// the hash family, ShardedMcCuckoo, ItemStore, Connection::OnData with a
// StoreHandler, and a loopback round trip. The server ladder runs one key
// stream through cumulative rungs (hash -> core -> item_store -> protocol
// -> loopback), so adjacent differences are each layer's self time and
// the gap to the workload's own per-request p50 is the unexplained
// residual.

#ifndef PERFBENCH_MCBENCH_LAYERS_H_
#define PERFBENCH_MCBENCH_LAYERS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "mcbench/harness.h"
#include "mcbench/spans.h"
#include "src/core/config.h"
#include "src/mem/access_stats.h"
#include "src/obs/server_metrics.h"
#include "src/server/item_store.h"
#include "src/server/server.h"

namespace perfbench {

using Store = mccuckoo::server::ItemStore;
using Sharded = Store::Sharded;

/// The aggregate TableOptions an ItemStore builds its table with (the same
/// choices src/server/item_store.cc makes), for side tables that mirror it.
mccuckoo::TableOptions StoreTableOptions(
    const mccuckoo::server::ItemStoreOptions& o);

/// The table key the item layer derives for `key`. Mirrors the store's key
/// hash; the probes check that every derived key is present, so a change
/// to that derivation fails the run instead of skewing numbers.
uint64_t StoreTableKey(uint64_t store_seed, std::string_view key);

/// Counters of one measured phase that feed per-layer ratios.
struct PhaseCounters {
  mccuckoo::MetricsSnapshot table_before;
  mccuckoo::MetricsSnapshot table_after;
  uint64_t lookups = 0;  ///< Table lookups the phase issued.
};

/// Table layer: core.*, mem.*, obs.* on `table`, whose present keys are
/// `keys` (insertion order) and whose aggregate options are `options`.
struct TableProbe {
  Sharded* table = nullptr;
  mccuckoo::TableOptions options;
  size_t shards = 8;
  const std::vector<uint64_t>* keys = nullptr;
  PhaseCounters phase;
};
void MeasureTableLayers(const TableProbe& p, const Args& args, SpanLog* spans,
                        Report* report);

/// Server layers: hash, ladder.*, protocol.*, item_store.*, event_loop.*,
/// client.* over the workload's own request stream on a quiescent server.
struct ServerProbe {
  mccuckoo::server::CacheServer* server = nullptr;
  mccuckoo::server::ItemStoreOptions store_options;
  const KeySet* keys = nullptr;
  const ValueGen* values = nullptr;
  /// The ladder's SETs go through the workload's version table, so the
  /// values it writes stay checkable.
  VersionTable* versions = nullptr;
  /// Keys per request: 1 sends GETs, more sends one MGET per request.
  size_t keys_per_request = 1;
  /// Key ids read, keys_per_request per request.
  std::vector<uint32_t> reads;
  /// Key ids written per request (pipelined SETs), flattened; sets[i]
  /// holds request i's count.
  std::vector<uint32_t> writes;
  std::vector<uint8_t> sets;
  /// The workload's own per-request p50, which the ladder explains.
  double workload_p50_us = 0;
  /// Server counters over the workload's measured phase; the ladder's own
  /// traffic stands in when the workload has no server phase.
  bool has_phase = false;
  mccuckoo::ServerMetricsSnapshot phase_before;
  mccuckoo::ServerMetricsSnapshot phase_after;
};
void MeasureServerLayers(ServerProbe& p, const Args& args, SpanLog* spans,
                         Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_LAYERS_H_
