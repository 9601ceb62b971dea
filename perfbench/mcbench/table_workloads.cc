// Table workload: no server, nproc threads on ShardedMcCuckoo over the
// item store's table type, in the server's modes (optimistic reads,
// multi-writer).
//
//  table_rw    95% Find / 5% InsertOrAssign on existing keys, uniform, at
//              load 0.9 with growth off.
//
// Values pack (version << 32 | key id), so every hit is checked against
// the version bounds of its key's single writer.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mcbench/layers.h"
#include "mcbench/workloads.h"
#include "src/common/rng.h"

namespace perfbench {

namespace ms = mccuckoo::server;

namespace {

constexpr uint64_t kSampleEvery = 64;  // 1-in-N ops timed for p50/p99
constexpr size_t kShards = 8;
/// Freshly built tables one table_rw run measures in turn.
constexpr int kRwTables = 8;

uint64_t Pack(uint64_t id, uint32_t version) {
  return static_cast<uint64_t>(version) << 32 | id;
}

struct alignas(64) OpsCell {
  std::atomic<uint64_t> ops{0};
};

mccuckoo::TableOptions TableOpts(uint64_t seed, uint64_t slots, bool growth) {
  ms::ItemStoreOptions o;
  o.initial_slots = slots;
  o.seed = mccuckoo::SplitMix64(seed ^ 0x7461626C65ull);
  o.growth_enabled = growth;
  return StoreTableOptions(o);
}

std::vector<uint64_t> MakeKeys(uint64_t n, uint64_t seed) {
  const uint64_t salt = mccuckoo::SplitMix64(seed ^ 0x75363472ull);
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = mccuckoo::SplitMix64(salt + i);
  return keys;
}

/// Runs the server ladder on a side server holding generated keys, so the
/// server-layer metrics exist on table_rw too (off its path).
void SideServerLayers(const Args& args, SpanLog* spans, Report* report) {
  const uint64_t n = args.smoke ? 2048 : 32768;
  const KeySet keys(n, args.seed);
  const ValueGen values(args.seed, 64, 64);
  VersionTable versions(n);
  ms::ItemStoreOptions so;
  so.seed = mccuckoo::SplitMix64(args.seed ^ 0x73696465ull);
  auto server = StartPreloadedServer(so, keys, n, values, report);
  if (server == nullptr) return;
  ServerProbe sp;
  sp.server = server.get();
  sp.store_options = so;
  sp.keys = &keys;
  sp.values = &values;
  sp.versions = &versions;
  sp.keys_per_request = 1;
  mccuckoo::Xoshiro256 rng(args.seed ^ 0x6C6164646572ull);
  const size_t reqs = args.smoke ? 256 : 4000;
  for (size_t r = 0; r < reqs; ++r) {
    sp.reads.push_back(static_cast<uint32_t>(rng.Below(n)));
    sp.sets.push_back(0);
  }
  MeasureServerLayers(sp, args, spans, report);
}

// --- table_rw ---------------------------------------------------------------

struct RwPhase {
  Window win;
  std::vector<double> lat_us;  ///< Sampled ops inside the window.
  uint64_t finds = 0;
};

RwPhase RunRwPhase(Sharded* table, const std::vector<uint64_t>& keys,
                   VersionTable* versions, double seconds, uint64_t seed,
                   SpanLog* spans, Report* report) {
  const int threads = HostThreads();
  const uint64_t n = keys.size();
  std::atomic<bool> stop{false};
  std::vector<OpsCell> cells(threads);
  std::vector<std::vector<TimedSample>> lat(threads);
  std::vector<uint64_t> finds(threads, 0);
  std::vector<SpanBuffer*> sbs;
  for (int t = 0; t < threads; ++t) {
    sbs.push_back(spans->NewBuffer("table." + std::to_string(t), 1 << 14));
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      mccuckoo::Xoshiro256 rng(mccuckoo::SplitMix64(seed + t));
      SpanBuffer* sb = sbs[t];
      const uint64_t per_thread = n / static_cast<uint64_t>(threads);
      uint64_t ops = 0, bad = 0, nfind = 0;
      lat[t].reserve(1 << 20);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i, ++ops) {
          const uint64_t r = rng.Next();
          const bool timed = ops % kSampleEvery == 0;
          const uint64_t t0 = timed ? NowNs() : 0;
          if (r % 100 < 5) {
            const uint64_t id =
                (r >> 8) % per_thread * static_cast<uint64_t>(threads) +
                static_cast<uint64_t>(t);
            const uint32_t v = versions->BeginWrite(id);
            const mccuckoo::InsertResult res =
                table->InsertOrAssign(keys[id], Pack(id, v));
            versions->EndWrite(id, v);
            if (res == mccuckoo::InsertResult::kFailed) ++bad;
            if (timed) {
              const uint64_t t1 = NowNs();
              lat[t].push_back({t1, static_cast<double>(t1 - t0) / 1e3});
              sb->Add("core.insert_or_assign", "table.op", ops, t0, t1);
            }
          } else {
            const uint64_t id = (r >> 8) % n;
            const uint32_t lo = versions->Low(id);
            uint64_t v = 0;
            const bool hit = table->Find(keys[id], &v);
            if (timed) {
              const uint64_t t1 = NowNs();
              lat[t].push_back({t1, static_cast<double>(t1 - t0) / 1e3});
              sb->Add("core.find", "table.op", ops, t0, t1);
            }
            ++nfind;
            const uint32_t ver = static_cast<uint32_t>(v >> 32);
            if (!hit || (v & 0xFFFFFFFFull) != id || ver < lo ||
                ver > versions->High(id)) {
              ++bad;
              report->Fail(hit ? "table_rw: stale or wrong value"
                               : "table_rw: present key not found");
            }
          }
        }
        cells[t].ops.fetch_add(256, std::memory_order_relaxed);
      }
      finds[t] = nfind;
      report->Count(ops, bad);
    });
  }
  auto total = [&] {
    uint64_t s = 0;
    for (auto& c : cells) s += c.ops.load(std::memory_order_relaxed);
    return s;
  };
  const Window win = MeasureWindow(seconds, total, ProcessCpuNs);
  stop.store(true);
  for (auto& t : ts) t.join();
  RwPhase r;
  r.win = win;
  std::vector<TimedSample> all;
  for (int t = 0; t < threads; ++t) {
    all.insert(all.end(), lat[t].begin(), lat[t].end());
    r.finds += finds[t];
  }
  r.lat_us = win.Within(all);
  return r;
}

/// A preloaded table_rw table: load 0.9, every key at version 0.
struct RwTable {
  std::unique_ptr<Sharded> table;
  std::vector<uint64_t> keys;
  double setup_s = 0;
  double bytes_per_item = 0;
};

bool BuildRwTable(const mccuckoo::TableOptions& opts, uint64_t seed,
                  Report* report, RwTable* rw) {
  rw->table.reset();
  rw->keys.clear();
  rw->keys.shrink_to_fit();
  TrimHeap();
  const uint64_t rss0 = RssBytes();
  const uint64_t t0 = NowNs();
  rw->table = std::make_unique<Sharded>(opts, kShards,
                                        mccuckoo::ReadMode::kOptimistic,
                                        mccuckoo::WriteMode::kMultiWriter);
  const uint64_t n = rw->table->capacity() * 9 / 10;
  rw->keys = MakeKeys(n, seed);
  uint64_t failed = 0;
  for (uint64_t id = 0; id < n; ++id) {
    failed += rw->table->Insert(rw->keys[id], Pack(id, 0)) ==
              mccuckoo::InsertResult::kFailed;
  }
  rw->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  rw->bytes_per_item = RssPerItem(rss0, RssBytes(), n);
  report->Count(n, failed);
  if (failed > 0 || rw->table->TotalItems() != n) {
    report->Fail("table_rw preload: " +
                 std::to_string(rw->table->TotalItems()) + " items of " +
                 std::to_string(n));
    return false;
  }
  return true;
}

}  // namespace

void RunTableRw(const Args& args, SpanLog* spans, Report* report) {
  const uint64_t slots = args.smoke ? 8192 : 1 << 16;
  const mccuckoo::TableOptions opts = TableOpts(args.seed, slots, false);
  const int threads = HostThreads();
  report->SetContext("table_threads", std::to_string(threads));
  uint64_t seed = mccuckoo::SplitMix64(args.seed ^ 0x7277ull);
  SpanLog no_spans(false);

  if (args.trace) {
    RwTable rw;
    if (!BuildRwTable(opts, args.seed, report, &rw)) return;
    Sharded* table = rw.table.get();
    VersionTable versions(rw.keys.size());
    RunRwPhase(table, rw.keys, &versions, args.smoke ? 0.1 : 0.5, ++seed,
               &no_spans, report);
    const double half = args.smoke ? 0.3 : std::max(1.0, 0.4 * args.seconds);
    PhaseCounters pc;
    pc.table_before = table->metrics_snapshot();
    RwPhase plain = RunRwPhase(table, rw.keys, &versions, half, ++seed,
                               &no_spans, report);
    const RwPhase traced = RunRwPhase(table, rw.keys, &versions, half, ++seed,
                                      spans, report);
    pc.table_after = table->metrics_snapshot();
    pc.lookups = plain.finds + traced.finds;
    report->Add("trace.overhead_frac",
                traced.win.ops_per_s > 0
                    ? plain.win.ops_per_s / traced.win.ops_per_s - 1.0
                    : 0.0,
                "fraction");
    report->Add("client.p99_us", Quantile(&plain.lat_us, 0.99), "us");
    TableProbe tp;
    tp.table = table;
    tp.options = opts;
    tp.shards = kShards;
    tp.keys = &rw.keys;
    tp.phase = pc;
    MeasureTableLayers(tp, args, spans, report);
    SideServerLayers(args, spans, report);
    return;
  }

  // The measured time is split over kRwTables tables, each built afresh
  // (its set-up is one setup_s sample), warmed up and then timed, so one
  // run averages over as many heap layouts and thread placements.
  // Throughput and CPU are totals over all of them, p50 over every
  // sampled op.
  std::vector<double> setup_s;
  double bytes_per_item = 0;
  Totals all;
  const int tables = args.smoke ? 2 : kRwTables;
  for (int i = 0; i < tables; ++i) {
    RwTable rw;
    if (!BuildRwTable(opts, args.seed, report, &rw)) return;
    setup_s.push_back(rw.setup_s);
    if (i == 0) bytes_per_item = rw.bytes_per_item;
    VersionTable versions(rw.keys.size());
    RunRwPhase(rw.table.get(), rw.keys, &versions, args.smoke ? 0.05 : 0.2,
               ++seed, &no_spans, report);
    const RwPhase r = RunRwPhase(rw.table.get(), rw.keys, &versions,
                                 (args.smoke ? 0.5 : args.seconds) / tables,
                                 ++seed, &no_spans, report);
    std::fprintf(stderr, "table_rw table %d: %.0f ops/s\n", i,
                 r.win.ops_per_s);
    all.Add(r.win, r.lat_us);
  }
  report->Add("throughput_ops_s", all.ops_per_s(), "ops/s");
  report->Add("p50_us", Quantile(&all.samples, 0.50), "us");
  report->Add("cpu_us_per_op", all.cpu_us_per_op(), "us");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("mem_bytes_per_item", bytes_per_item, "bytes");
}

}  // namespace perfbench
