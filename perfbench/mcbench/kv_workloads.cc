// Server workloads: an in-process CacheServer (2 epoll workers) driven over
// loopback TCP by 2 closed-loop generator threads, one connection each.
//
//  kv_get    one-key GETs, Zipf 0.99 over 32768 keys with 64 B values (the
//            whole store fits in L2), one request in flight per connection:
//            the fixed per-request cost (syscalls, wakeups, parse,
//            serialize) dominates.
//  kv_batch  each round trip one MGET of 32 uniform keys plus ~3.2
//            pipelined SETs (about 10% of the keys), values log-uniform
//            32 B..1 KiB over 2^20 keys, a working set larger than the
//            last-level cache: the item and table layers dominate.
//
// Connection t writes only keys with id % 2 == t, so every key has one
// writer and each read is checked byte-for-byte against the versions that
// writer could have left.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mcbench/layers.h"
#include "mcbench/net.h"
#include "mcbench/round_trip.h"
#include "mcbench/workloads.h"
#include "src/common/rng.h"
#include "src/workload/zipf.h"

namespace perfbench {

namespace ms = mccuckoo::server;

namespace {

constexpr int kServerWorkers = 2;
constexpr int kConnections = 2;

/// What one closed-loop round trip carries.
struct Shape {
  size_t keys = 1;       ///< 1: one GET; more: one MGET of this many keys.
  bool zipf = false;     ///< Zipf 0.99 key popularity, else uniform.
  bool writes = false;   ///< Pipeline 3 or 4 SETs (mean 3.2) after the read.
};

/// Everything a workload fixes before its set-ups.
struct ServerWorkload {
  uint64_t keys = 0;
  size_t min_value = 64;
  size_t max_value = 64;
  Shape shape;
  size_t ladder_requests = 0;
  int servers = 0;  ///< Servers one untraced run measures in turn.
};

ms::ItemStoreOptions StoreOptions(uint64_t seed, uint64_t n) {
  ms::ItemStoreOptions o;
  o.initial_slots = std::max<uint64_t>(1 << 16, 2 * n);
  o.seed = mccuckoo::SplitMix64(seed ^ 0x73746F7265ull);
  return o;
}

/// One set-up: server start, preload, connections. Null on failure.
std::unique_ptr<ms::CacheServer> TimedSetup(
    const ms::ItemStoreOptions& store, const KeySet& keys, uint64_t n,
    const ValueGen& values, std::vector<std::unique_ptr<LoopbackConn>>* conns,
    std::vector<double>* seconds, std::vector<double>* bytes_per_item,
    Report* report) {
  conns->clear();
  TrimHeap();
  const uint64_t rss0 = RssBytes();
  const uint64_t t0 = NowNs();
  auto server = StartPreloadedServer(store, keys, n, values, report);
  if (server == nullptr) return nullptr;
  for (int c = 0; c < kConnections; ++c) {
    conns->push_back(std::make_unique<LoopbackConn>());
    if (!conns->back()->Connect(server->port())) {
      report->Fail("cannot connect to the server");
      report->Count(1, 1);
      return nullptr;
    }
  }
  seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  bytes_per_item->push_back(
      RssPerItem(rss0, RssBytes(), server->store().items()));
  return server;
}

struct ClosedLoopCtx {
  const KeySet* keys;
  const ValueGen* values;
  VersionTable* versions;
  const mccuckoo::ZipfGenerator* zipf;
  uint64_t n;
  Shape shape;
};

struct alignas(64) OpsCell {
  std::atomic<uint64_t> ops{0};
};

struct ClosedLoopOut {
  std::vector<TimedSample> samples;  ///< Latency (us) per round trip.
  uint64_t keys_checked = 0;
  uint64_t errors = 0;
  bool broken = false;
};

/// One connection's closed loop: build a round trip, send it, wait for
/// every reply, check the values, repeat until `stop`.
ClosedLoopOut ClosedLoop(const ClosedLoopCtx& ctx, LoopbackConn* conn, int t,
                         uint64_t seed, const std::atomic<bool>& stop,
                         OpsCell* cell, SpanBuffer* sb, Report* report) {
  ClosedLoopOut out;
  mccuckoo::Xoshiro256 rng(seed);
  RoundTripper rt(conn);
  const size_t B = ctx.shape.keys;
  std::vector<uint32_t> ids(B), lo(B);
  std::vector<std::string_view> views(B);
  std::vector<std::pair<uint32_t, uint32_t>> written;  // (id, version)
  std::vector<std::string> vals(4);
  std::vector<SetOp> sets;
  std::string scratch;
  const uint64_t per_conn = ctx.n / kConnections;
  uint64_t round_trips = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const uint64_t req = (static_cast<uint64_t>(t) << 40) + round_trips;
    for (size_t i = 0; i < B; ++i) {
      ids[i] = static_cast<uint32_t>(ctx.shape.zipf ? ctx.zipf->Sample(rng)
                                                    : rng.Below(ctx.n));
      views[i] = ctx.keys->Key(ids[i]);
      lo[i] = ctx.versions->Low(ids[i]);
    }
    const size_t nsets =
        ctx.shape.writes ? 3 + (rng.NextDouble() < 0.2 ? 1 : 0) : 0;
    written.clear();
    sets.clear();
    for (size_t i = 0; i < nsets; ++i) {
      const uint32_t id = static_cast<uint32_t>(
          rng.Below(per_conn) * kConnections + static_cast<uint64_t>(t));
      const uint32_t v = ctx.versions->BeginWrite(id);
      ctx.values->Fill(id, v, &vals[i]);
      written.emplace_back(id, v);
      sets.push_back({ctx.keys->Key(id), vals[i]});
    }
    const uint64_t t0 = NowNs();
    const bool ok = rt.Run(views, sets, sb, "client.round_trip", req);
    const uint64_t t1 = NowNs();
    if (!ok) {
      out.broken = true;
      ++out.errors;
      report->Fail(std::string("server workload: round trip failed: ") +
                   rt.error());
      break;
    }
    for (const auto& [id, v] : written) ctx.versions->EndWrite(id, v);
    out.samples.push_back({t1, static_cast<double>(t1 - t0) / 1e3});
    ++round_trips;
    cell->ops.fetch_add(B + nsets, std::memory_order_relaxed);
    {
      ScopedSpan s(sb, "client.check", "client.round_trip", req);
      const auto& got = rt.reads();
      for (size_t i = 0; i < B; ++i) {
        if (!got[i].found) {
          ++out.errors;
          report->Fail("server workload: miss on a preloaded key");
        } else if (!ctx.values->Check(got[i].value, ids[i], lo[i],
                                      ctx.versions->High(ids[i]), &scratch)) {
          ++out.errors;
          report->Fail("server workload: wrong value for key id " +
                       std::to_string(ids[i]));
        }
      }
    }
    out.keys_checked += B + nsets;
    sb->Add("client.round_trip", "", req, t0, t1);
  }
  return out;
}

struct Phase {
  Window win;                  ///< Ops: keys read + written. CPU: the
                               ///< process's minus the generators'.
  std::vector<double> lat_us;  ///< Round trips inside the window.
  uint64_t reads = 0;
  bool broken = false;
};

/// Runs both connections' closed loops for `seconds` and takes the phase
/// whole.
Phase RunPhase(const ClosedLoopCtx& ctx,
               std::vector<std::unique_ptr<LoopbackConn>>& conns,
               double seconds, uint64_t seed, std::vector<SpanBuffer*>& sbs,
               Report* report) {
  std::atomic<bool> stop{false};
  std::vector<OpsCell> cells(conns.size());
  std::vector<ClosedLoopOut> outs(conns.size());
  std::vector<std::thread> ts;
  for (size_t c = 0; c < conns.size(); ++c) {
    ts.emplace_back([&, c] {
      outs[c] = ClosedLoop(ctx, conns[c].get(), static_cast<int>(c),
                           mccuckoo::SplitMix64(seed + c), stop, &cells[c],
                           sbs[c], report);
    });
  }
  auto ops = [&] {
    uint64_t s = 0;
    for (auto& c : cells) s += c.ops.load(std::memory_order_relaxed);
    return s;
  };
  // The server's CPU: the process's, less the generator threads' own.
  auto server_cpu = [&] {
    uint64_t gen = 0;
    for (auto& t : ts) gen += ThreadCpuNs(t);
    const uint64_t proc = ProcessCpuNs();
    return proc > gen ? proc - gen : 0;
  };
  const Window win = MeasureWindow(seconds, ops, server_cpu);
  stop.store(true);
  for (auto& t : ts) t.join();
  Phase r;
  std::vector<TimedSample> all;
  uint64_t checked = 0, errors = 0;
  for (const auto& o : outs) {
    all.insert(all.end(), o.samples.begin(), o.samples.end());
    checked += o.keys_checked;
    errors += o.errors;
    r.reads += o.samples.size() * ctx.shape.keys;
    r.broken = r.broken || o.broken;
  }
  report->Count(std::max<uint64_t>(checked, 1), errors);
  r.win = win;
  r.lat_us = win.Within(all);
  return r;
}

void RunServerWorkload(const ServerWorkload& w, const Args& args,
                       SpanLog* spans, Report* report) {
  const uint64_t n = w.keys;
  const KeySet keys(n, args.seed);
  const ValueGen values(args.seed, w.min_value, w.max_value);
  const mccuckoo::ZipfGenerator zipf(w.shape.zipf ? n : 1, 0.99);
  const ms::ItemStoreOptions sopt = StoreOptions(args.seed, n);
  report->SetContext("server_workers", std::to_string(kServerWorkers));
  report->SetContext("generator_threads", std::to_string(kConnections));
  report->SetContext("keys", std::to_string(n));

  SpanLog no_spans(false);
  std::vector<SpanBuffer*> quiet, traced;
  for (int c = 0; c < kConnections; ++c) {
    quiet.push_back(no_spans.NewBuffer("generator", 0));
    traced.push_back(spans->NewBuffer("generator." + std::to_string(c)));
  }
  uint64_t seed = mccuckoo::SplitMix64(args.seed ^ 0x6B76ull);
  // Warm-up: caches, socket buffers, the workers' first wakeups.
  const double warm_s = args.smoke ? 0.1 : 0.3;
  std::vector<double> setup_s, bytes_per_item;
  std::vector<std::unique_ptr<LoopbackConn>> conns;
  std::unique_ptr<ms::CacheServer> server;

  if (!args.trace) {
    // The measured time is split over w.servers servers, each started and
    // preloaded afresh (one setup_s sample each), warmed up and then timed,
    // so one run averages over as many heap layouts and thread placements.
    // Throughput and CPU are totals over all of them, p50 over every
    // round trip.
    Totals all;
    const int servers = args.smoke ? 2 : w.servers;
    for (int i = 0; i < servers; ++i) {
      conns.clear();
      server.reset();
      server = TimedSetup(sopt, keys, n, values, &conns, &setup_s,
                          &bytes_per_item, report);
      if (server == nullptr) return;
      VersionTable versions(n);
      const ClosedLoopCtx ctx{&keys, &values, &versions, &zipf, n, w.shape};
      if (RunPhase(ctx, conns, warm_s, ++seed, quiet, report).broken) return;
      const Phase r = RunPhase(ctx, conns,
                               (args.smoke ? 0.5 : args.seconds) / servers,
                               ++seed, quiet, report);
      if (r.broken) return;
      std::fprintf(stderr, "%s server %d: %.0f ops/s\n",
                   args.workload.c_str(), i, r.win.ops_per_s);
      all.Add(r.win, r.lat_us);
    }
    report->Add("throughput_ops_s", all.ops_per_s(), "ops/s");
    report->Add("p50_us", Quantile(&all.samples, 0.50), "us");
    report->Add("cpu_us_per_op", all.cpu_us_per_op(), "us");
    report->Add("setup_s", Median(setup_s), "s");
    // Later set-ups reuse heap the first one returned, so only the first
    // shows the store's own footprint.
    report->Add("mem_bytes_per_item", bytes_per_item.front(), "bytes");
    return;
  }

  server = TimedSetup(sopt, keys, n, values, &conns, &setup_s,
                      &bytes_per_item, report);
  if (server == nullptr) return;
  VersionTable versions(n);
  const ClosedLoopCtx ctx{&keys, &values, &versions, &zipf, n, w.shape};
  if (RunPhase(ctx, conns, warm_s, ++seed, quiet, report).broken) return;
  const double half = args.smoke ? 0.3 : std::max(1.0, 0.4 * args.seconds);
  PhaseCounters pc;
  pc.table_before = server->store().table().metrics_snapshot();
  const mccuckoo::ServerMetricsSnapshot srv0 = server->metrics_snapshot();
  Phase plain = RunPhase(ctx, conns, half, ++seed, quiet, report);
  const Phase withspans = RunPhase(ctx, conns, half, ++seed, traced, report);
  pc.table_after = server->store().table().metrics_snapshot();
  pc.lookups = plain.reads + withspans.reads;
  const mccuckoo::ServerMetricsSnapshot srv1 = server->metrics_snapshot();
  if (plain.broken || withspans.broken) return;
  conns.clear();
  report->Add("trace.overhead_frac",
              withspans.win.ops_per_s > 0
                  ? plain.win.ops_per_s / withspans.win.ops_per_s - 1.0
                  : 0.0,
              "fraction");
  const double plain_p50_us = Quantile(&plain.lat_us, 0.50);
  report->Add("client.p99_us", Quantile(&plain.lat_us, 0.99), "us");

  ServerProbe sp;
  sp.server = server.get();
  sp.store_options = sopt;
  sp.keys = &keys;
  sp.values = &values;
  sp.versions = &versions;
  sp.keys_per_request = w.shape.keys;
  mccuckoo::Xoshiro256 rng(seed ^ 0x6C6164646572ull);
  for (size_t r = 0; r < w.ladder_requests; ++r) {
    for (size_t i = 0; i < w.shape.keys; ++i) {
      sp.reads.push_back(static_cast<uint32_t>(
          w.shape.zipf ? zipf.Sample(rng) : rng.Below(n)));
    }
    const uint8_t s = w.shape.writes ? 3 + (rng.NextDouble() < 0.2 ? 1 : 0) : 0;
    for (uint8_t i = 0; i < s; ++i) {
      sp.writes.push_back(static_cast<uint32_t>(rng.Below(n)));
    }
    sp.sets.push_back(s);
  }
  sp.workload_p50_us = plain_p50_us;
  sp.has_phase = true;
  sp.phase_before = srv0;
  sp.phase_after = srv1;
  MeasureServerLayers(sp, args, spans, report);

  std::vector<uint64_t> tkeys(n);
  for (uint64_t i = 0; i < n; ++i) {
    tkeys[i] = StoreTableKey(sopt.seed, keys.Key(i));
  }
  TableProbe tp;
  tp.table = &server->store().table();
  tp.options = StoreTableOptions(sopt);
  tp.shards = sopt.shards;
  tp.keys = &tkeys;
  tp.phase = pc;
  MeasureTableLayers(tp, args, spans, report);
}

}  // namespace

std::unique_ptr<ms::CacheServer> StartPreloadedServer(
    const ms::ItemStoreOptions& store, const KeySet& keys, uint64_t n,
    const ValueGen& values, Report* report) {
  ms::ServerOptions so;
  so.port = 0;
  so.threads = kServerWorkers;
  so.sweep_interval_ms = 0;  // nothing expires; keep the sweep off the path
  so.store = store;
  auto server = std::make_unique<ms::CacheServer>(so);
  const mccuckoo::Status st = server->Start();
  if (!st.ok()) {
    report->Fail("server start failed: " + st.ToString());
    report->Count(1, 1);
    return nullptr;
  }
  // One loader thread, so the table layout (and with it the mem.* access
  // counts) is a function of the seed alone.
  uint64_t fails = 0;
  std::string v;
  for (uint64_t i = 0; i < n; ++i) {
    values.Fill(static_cast<uint32_t>(i), 0, &v);
    fails += !server->store().Set(keys.Key(i), v, 0).ok();
  }
  report->Count(n, fails);
  if (fails > 0 || server->store().items() != n) {
    const mccuckoo::ServerMetricsSnapshot m = server->metrics_snapshot();
    report->Fail("preload: " + std::to_string(server->store().items()) +
                 " items stored of " + std::to_string(n) + " (" +
                 std::to_string(fails) + " Set errors, " +
                 std::to_string(m.evictions_pressure) +
                 " pressure evictions, " + std::to_string(m.hash_collisions) +
                 " hash collisions)");
    return nullptr;
  }
  return server;
}

void RunKvGet(const Args& args, SpanLog* spans, Report* report) {
  ServerWorkload w;
  w.keys = args.smoke ? 2048 : 32768;
  w.min_value = w.max_value = 64;
  w.shape = Shape{1, true, false};
  w.ladder_requests = args.smoke ? 256 : 8000;
  w.servers = 8;  // a set-up takes ~30 ms
  RunServerWorkload(w, args, spans, report);
}

void RunKvBatch(const Args& args, SpanLog* spans, Report* report) {
  ServerWorkload w;
  w.keys = args.smoke ? 4096 : uint64_t{1} << 20;
  w.min_value = 32;
  w.max_value = 1024;
  w.shape = Shape{32, false, true};
  w.ladder_requests = args.smoke ? 64 : 1500;
  w.servers = 3;  // a set-up takes ~2 s
  RunServerWorkload(w, args, spans, report);
}

}  // namespace perfbench
