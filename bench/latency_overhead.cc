// Measures the cost of sampled op-latency timing on the lookup hot path.
//
// Companion to metrics_overhead.cc, one knob further in: that pair prices
// the whole observability layer (compiled in vs compiled out); this binary
// prices just the LatencyRecorder at the default 1-in-32 sampling against
// sampling disabled (period 0 — no clock reads and no sampling counter at
// all), in a single metrics-on binary, on the three lookup paths of
// bench/lookup_overhead.h. Results land in BENCH_throughput.json as
//
//   lat_on.lookup_hit.McCuckoo.load90<row>     (period 32)
//   lat_off.lookup_hit.McCuckoo.load90<row>    (period 0)
//   lat_overhead.ratio<row>                    (on / off)
//
// with <row> empty for bulk FindBatch (acceptance >= 0.95), ".scalar" for
// one Find per key, and ".scalar.tN" for Find on N = nproc threads through
// the optimistic ShardedMcCuckoo (whose keys read
// lookup_hit.ShardedMcCuckoo.optimistic.load90.scalar.tN).
//
// Links only mccuckoo_base, like every bench that instantiates the table
// templates itself.
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
#include "src/workload/keyset.h"

namespace mccuckoo {
namespace {

void SetSamplePeriod(OverheadTable& table, OverheadSharded& sharded,
                     uint32_t period) {
  table.latency().set_sample_period(period);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    sharded.WithExclusiveShard(s, [period](OverheadTable& t) {
      t.latency().set_sample_period(period);
    });
  }
}

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
  OverheadTable table(options);

  const uint64_t n_keys = table.capacity() * 9 / 10;
  std::vector<uint64_t> keys = MakeUniqueKeys(n_keys, options.seed, 0);
  for (uint64_t k : keys) table.Insert(k, k + 1);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(42));
  OverheadSharded sharded = MakeOverheadSharded(options, keys);

  // Each row is best-of-`reps` at period 0, then at the default period,
  // on the same warmed tables, so ordering effects wash out.
  struct Row {
    std::string name, suffix;
    double rate[2];  // [period 0, default period]
  };
  std::vector<Row> rows = {{"lookup_hit.McCuckoo.load90", "", {}},
                           {"lookup_hit.McCuckoo.load90.scalar", ".scalar", {}},
                           {"lookup_hit.ShardedMcCuckoo.optimistic.load90" +
                                OverheadThreadsSuffix(),
                            OverheadThreadsSuffix(),
                            {}}};
  for (int on = 0; on < 2; ++on) {
    SetSamplePeriod(table, sharded,
                    on ? LatencyRecorder::kDefaultSamplePeriod : 0);
    rows[0].rate[on] = TimeBatchFinds(table, keys, reps);
    rows[1].rate[on] = TimeScalarFinds(table, keys, reps);
    rows[2].rate[on] = TimeShardedFinds(sharded, keys, reps);
  }

  FlatJson entries;
  for (const Row& r : rows) {
    const double ratio = r.rate[0] > 0 ? r.rate[1] / r.rate[0] : 0.0;
    entries["lat_off." + r.name] = r.rate[0];
    entries["lat_on." + r.name] = r.rate[1];
    entries["lat_overhead.ratio" + r.suffix] = ratio;
    std::printf("%-58s off %10.3g  on %10.3g keys/s  ratio %.4f\n",
                r.name.c_str(), r.rate[0], r.rate[1], ratio);
  }
  std::printf("(on = period %u; ratio >= 0.95 means sampling costs <= 5%%)\n",
              LatencyRecorder::kDefaultSamplePeriod);
  const std::string path = BenchJsonPath();
  if (!MergeFlatJson(path, "lat_", entries)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("merged into %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace mccuckoo

int main(int argc, char** argv) { return mccuckoo::Run(argc, argv); }
