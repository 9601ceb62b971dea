// Measures the cost of the observability layer on the lookup hot path.
//
// This source is compiled twice: `metrics_overhead` with metrics on (the
// default build mode) and `metrics_overhead_off` with -DMCCUCKOO_NO_METRICS.
// Both fill a McCuckooTable to 90% load and time hit lookups three ways
// (bench/lookup_overhead.h) with plain std::chrono; their throughputs land
// in BENCH_throughput.json under the "obs_on." / "obs_off." prefixes:
//
//   lookup_hit.McCuckoo.load90                  bulk FindBatch, one thread
//   lookup_hit.McCuckoo.load90.scalar           Find per key, one thread
//   lookup_hit.ShardedMcCuckoo.optimistic.load90.scalar.tN
//                                               Find on N = nproc threads
//
// obs_on / obs_off of a row is the relative cost of metrics recording on
// that path (acceptance: >= 0.95 for the batch row; CI gates the tN row at
// >= 0.75 when nproc >= 4). Both binaries link only mccuckoo_base and
// instantiate the tables in this translation unit — linking the full
// library would mix metrics-on and metrics-off template instantiations in
// one binary (an ODR violation).
//
//   --slots=N   total slot capacity (default 270000; $MCCUCKOO_BENCH_SLOTS)
//   --reps=N    timed passes, best-of (default 5)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/lookup_overhead.h"
#include "src/common/flags.h"
#include "src/obs/export.h"
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

int Run(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = parsed.value();
  const uint64_t slots = static_cast<uint64_t>(
      flags.GetInt("slots", static_cast<int64_t>(BenchSlotsOrDefault(270'000))));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  TableOptions options;
  options.num_hashes = 3;
  options.buckets_per_table = (slots + 2) / 3;
  options.maxloop = 500;
  options.seed = 0x5EEDC0DE;
  OverheadTable table(options);

  // Fill to 90% of the actual capacity (spills to the stash are fine; the
  // lookup path is what's under test).
  const uint64_t n_keys = table.capacity() * 9 / 10;
  std::vector<uint64_t> keys = MakeUniqueKeys(n_keys, options.seed, 0);
  for (uint64_t k : keys) table.Insert(k, k + 1);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(42));
  const OverheadSharded sharded = MakeOverheadSharded(options, keys);

  const std::string prefix = kMetricsEnabled ? "obs_on." : "obs_off.";
  const std::string batch_key = "lookup_hit.McCuckoo.load90";
  const std::string scalar_key = batch_key + ".scalar";
  const std::string sharded_key =
      "lookup_hit.ShardedMcCuckoo.optimistic.load90" + OverheadThreadsSuffix();
  FlatJson entries;
  entries[prefix + batch_key] = TimeBatchFinds(table, keys, reps);
  entries[prefix + scalar_key] = TimeScalarFinds(table, keys, reps);
  entries[prefix + sharded_key] = TimeShardedFinds(sharded, keys, reps);
  for (const std::string& key : {batch_key, scalar_key, sharded_key}) {
    std::printf("%-62s %12.3g keys/s  (metrics %s, load %.1f%%, best of %d)\n",
                (prefix + key).c_str(), entries[prefix + key],
                kMetricsEnabled ? "on" : "off", table.load_factor() * 100,
                reps);
  }

  if (kMetricsEnabled) {
    // Metrics-on runs also export their headline distribution columns —
    // free evidence the recording actually happened during the timed loop.
    MetricsSnapshot snap = table.SnapshotMetrics();
    for (const auto& [k, v] :
         MetricsFlatEntries(snap, prefix + "McCuckoo.")) {
      entries[k] = v;
    }
  }
  const std::string path = BenchJsonPath();
  if (!MergeFlatJson(path, prefix, entries)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("merged %zu entries into %s\n", entries.size(), path.c_str());
  return 0;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Run(argc, argv); }
