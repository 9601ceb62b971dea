#include "mcbench/layers.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <string>
#include <thread>

#include "mcbench/net.h"
#include "mcbench/open_loop.h"
#include "mcbench/round_trip.h"
#include "src/common/rng.h"
#include "src/hash/hash_family.h"
#include "src/hash/hashers.h"
#include "src/hash/xxhash.h"
#include "src/server/handler.h"
#include "src/server/protocol.h"

namespace perfbench {

namespace ms = mccuckoo::server;

namespace {

// Keeps results alive so the timed calls cannot be optimised away.
std::atomic<uint64_t> g_sink{0};

/// ns per op of `pass` (which returns the ops it did), repeated until
/// `min_s` elapses; the median of `reps` such measurements.
double MedianNsPerOp(const std::function<uint64_t()>& pass, double min_s,
                     int reps = 3) {
  std::vector<double> r;
  for (int i = 0; i < reps; ++i) {
    uint64_t ops = 0;
    const uint64_t t0 = NowNs();
    uint64_t t1 = t0;
    do {
      ops += pass();
      t1 = NowNs();
    } while (static_cast<double>(t1 - t0) < min_s * 1e9);
    r.push_back(static_cast<double>(t1 - t0) / static_cast<double>(ops));
  }
  return Median(r);
}

/// Per-op ns at `threads` threads: threads * wall / ops, each thread
/// calling pass(tid) until `seconds` elapse.
double ParallelNsPerOp(int threads,
                       const std::function<uint64_t(int)>& pass,
                       double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> ts;
  const uint64_t t0 = NowNs();
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed)) mine += pass(t);
      ops.fetch_add(mine);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : ts) t.join();
  const uint64_t wall = NowNs() - t0;
  return static_cast<double>(threads) * static_cast<double>(wall) /
         static_cast<double>(std::max<uint64_t>(1, ops.load()));
}

double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Loads the first `n` of `keys` into a fresh side table.
template <typename T>
void LoadSide(T* t, const std::vector<uint64_t>& keys, size_t n) {
  for (size_t i = 0; i < n; ++i) t->Insert(keys[i], keys[i] ^ 0x5A5A);
}

}  // namespace

mccuckoo::TableOptions StoreTableOptions(const ms::ItemStoreOptions& o) {
  mccuckoo::TableOptions t;
  t.num_hashes = 3;
  t.slots_per_bucket = 1;
  t.buckets_per_table =
      std::max<uint64_t>(1, (o.initial_slots + t.num_hashes - 1) /
                                t.num_hashes);
  t.seed = o.seed;
  t.deletion_mode = mccuckoo::DeletionMode::kResetCounters;
  t.stash_enabled = true;
  t.growth.enabled = o.growth_enabled;
  if (o.max_buckets_per_table != 0) {
    t.growth.max_buckets_per_table = o.max_buckets_per_table;
  }
  return t;
}

uint64_t StoreTableKey(uint64_t store_seed, std::string_view key) {
  return mccuckoo::XxHash64(
      key.data(), key.size(),
      mccuckoo::SplitMix64(store_seed ^ 0xD6E8FEB86659FD93ull));
}

void MeasureTableLayers(const TableProbe& p, const Args& args, SpanLog* spans,
                        Report* report) {
  SpanBuffer* sb = spans->NewBuffer("probe.table", 1 << 12);
  const std::vector<uint64_t>& keys = *p.keys;
  Sharded& table = *p.table;
  const double min_s = args.smoke ? 0.01 : 0.15;
  const int threads = HostThreads();

  // A seeded uniform sample of present keys, and their current values.
  mccuckoo::Xoshiro256 rng(args.seed ^ 0x7461626C65ull);
  const size_t m = std::min<size_t>(keys.size(), args.smoke ? 4096 : 1 << 18);
  std::vector<uint64_t> stream(m);
  for (auto& k : stream) k = keys[rng.Below(keys.size())];
  std::vector<uint64_t> vals(m);
  uint64_t misses = 0;
  for (size_t i = 0; i < m; ++i) misses += !table.Find(stream[i], &vals[i]);
  report->Count(m, misses);
  if (misses > 0) report->Fail("table probe: present key not found");

  auto find_pass = [&]() -> uint64_t {
    ScopedSpan s(sb, "core.find", "probe.table", 0);
    uint64_t acc = 0, v = 0;
    for (const uint64_t k : stream) acc += table.Find(k, &v) + v;
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    return stream.size();
  };
  report->Add("core.find_ns.t1", MedianNsPerOp(find_pass, min_s), "ns");

  constexpr size_t kBatch = 32;
  std::vector<uint64_t> out(kBatch);
  bool found[kBatch];
  auto batch_pass = [&]() -> uint64_t {
    ScopedSpan s(sb, "core.find_batch", "probe.table", 0);
    uint64_t acc = 0;
    const size_t whole = stream.size() / kBatch * kBatch;
    for (size_t i = 0; i < whole; i += kBatch) {
      acc += table.FindBatch(std::span<const uint64_t>(&stream[i], kBatch),
                             out.data(), found);
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    return std::max<size_t>(1, whole);
  };
  report->Add("core.findbatch_ns_per_key", MedianNsPerOp(batch_pass, min_s),
              "ns");

  auto par_find = [&](int t) -> uint64_t {
    uint64_t acc = 0, v = 0;
    const size_t start = stream.size() * static_cast<size_t>(t) /
                         static_cast<size_t>(threads);
    for (size_t i = 0; i < stream.size(); ++i) {
      const size_t j = start + i < stream.size() ? start + i
                                                 : start + i - stream.size();
      acc += table.Find(stream[j], &v) + v;
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    return stream.size();
  };
  {
    ScopedSpan s(sb, "core.find.tN", "probe.table", 0);
    report->Add("core.find_ns.tN",
                ParallelNsPerOp(threads, par_find, 3 * min_s), "ns");
  }

  // Rewrites present keys with their current values: a real write through
  // the concurrent path that leaves the contents unchanged.
  auto insert_pass = [&]() -> uint64_t {
    ScopedSpan s(sb, "core.insert_or_assign", "probe.table", 0);
    for (size_t i = 0; i < stream.size(); ++i) {
      table.InsertOrAssign(stream[i], vals[i]);
    }
    return stream.size();
  };
  report->Add("core.insert_ns.t1", MedianNsPerOp(insert_pass, min_s), "ns");
  auto par_insert = [&](int t) -> uint64_t {
    const size_t lo = stream.size() * static_cast<size_t>(t) /
                      static_cast<size_t>(threads);
    const size_t hi = stream.size() * static_cast<size_t>(t + 1) /
                      static_cast<size_t>(threads);
    for (size_t i = lo; i < hi; ++i) table.InsertOrAssign(stream[i], vals[i]);
    return hi - lo;
  };
  {
    ScopedSpan s(sb, "core.insert_or_assign.tN", "probe.table", 0);
    report->Add("core.insert_ns.tN",
                ParallelNsPerOp(threads, par_insert, 3 * min_s), "ns");
  }

  {
    std::vector<double> snap_us;
    for (int i = 0; i < 15; ++i) {
      ScopedSpan s(sb, "obs.metrics_snapshot", "probe.table", 0);
      const uint64_t t0 = NowNs();
      const mccuckoo::MetricsSnapshot snap = table.metrics_snapshot();
      snap_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      g_sink.fetch_add(snap.inserts, std::memory_order_relaxed);
    }
    report->Add("obs.snapshot_us", Median(snap_us), "us");
  }

  // Latency sampling cost: the same Find stream on two side tables that
  // differ only in latency_sample_period (library default vs off).
  {
    const size_t n = std::min<size_t>(keys.size(), args.smoke ? 2048 : 1 << 16);
    mccuckoo::TableOptions on = p.options;
    mccuckoo::TableOptions off = p.options;
    off.latency_sample_period = 0;
    on.latency_sample_period = mccuckoo::TableOptions{}.latency_sample_period;
    Sharded a(on, p.shards, mccuckoo::ReadMode::kOptimistic,
              mccuckoo::WriteMode::kMultiWriter);
    Sharded b(off, p.shards, mccuckoo::ReadMode::kOptimistic,
              mccuckoo::WriteMode::kMultiWriter);
    LoadSide(&a, keys, n);
    LoadSide(&b, keys, n);
    std::vector<uint64_t> side(stream.size());
    for (auto& k : side) k = keys[rng.Below(n)];
    auto pass_on = [&](Sharded& t) {
      return [&]() -> uint64_t {
        uint64_t acc = 0, v = 0;
        for (const uint64_t k : side) acc += t.Find(k, &v) + v;
        g_sink.fetch_add(acc, std::memory_order_relaxed);
        return side.size();
      };
    };
    std::vector<double> diff;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan s(sb, "obs.sampling_ab", "probe.table", 0);
      const double with = MedianNsPerOp(pass_on(a), min_s / 3, 1);
      const double without = MedianNsPerOp(pass_on(b), min_s / 3, 1);
      diff.push_back(with - without);
    }
    report->Add("obs.sampling_ns_per_op", Median(diff), "ns");
  }

  // The paper's access counts: Insert and Find on a single-threaded side
  // table with the same options, keys and insertion order (the concurrent
  // front-end's reads and multi-writer inserts skip the counters).
  {
    ScopedSpan s(sb, "mem.side_table_lookups", "probe.table", 0);
    const size_t n = std::min<size_t>(keys.size(), args.smoke ? 4096 : 1 << 20);
    Store::Table side(p.options);
    LoadSide(&side, keys, n);
    const mccuckoo::AccessStats ins = side.stats();
    report->Add("mem.kickouts_per_insert", Frac(ins.kickouts, n), "count");
    report->Add("mem.offchip_writes_per_insert", Frac(ins.offchip_writes, n),
                "count");
    side.ResetStats();
    mccuckoo::Xoshiro256 r2(args.seed ^ 0x6D656D6Full);
    const size_t lookups = std::min<size_t>(n, 1 << 18);
    uint64_t v = 0, hit = 0;
    for (size_t i = 0; i < lookups; ++i) {
      hit += side.Find(keys[r2.Below(n)], &v);
    }
    report->Count(lookups, lookups - hit);
    if (hit != lookups) report->Fail("side table: present key not found");
    const mccuckoo::AccessStats st = side.stats();
    report->Add("mem.offchip_reads_per_lookup", Frac(st.offchip_reads, lookups),
                "count");
    report->Add("mem.stash_probes_per_lookup", Frac(st.stash_probes, lookups),
                "count");
  }

  // Counters of the workload's own table (set-up plus measured phase).
  const mccuckoo::MetricsSnapshot& b = p.phase.table_before;
  const mccuckoo::MetricsSnapshot& a = p.phase.table_after;
  report->Add("core.optimistic_retry_frac",
              Frac(a.optimistic_retries - b.optimistic_retries,
                   p.phase.lookups),
              "fraction");
  report->Add("core.optimistic_fallback_frac",
              Frac(a.optimistic_fallbacks - b.optimistic_fallbacks,
                   p.phase.lookups),
              "fraction");
  report->Add("core.writer_lock_contended_frac",
              Frac(a.writer_lock_contended - b.writer_lock_contended,
                   a.writer_lock_acquisitions - b.writer_lock_acquisitions),
              "fraction");
  // The histogram's last bucket is open-ended; report its lower edge.
  report->Add("core.writer_lock_wait_p99_ns",
              static_cast<double>(std::min(
                  a.writer_lock_wait_ns.PercentileUpperBound(0.99),
                  mccuckoo::HistogramBucketUpperBound(
                      mccuckoo::kHistogramBuckets - 2))),
              "ns");
  report->Add("core.kick_chain_p99",
              static_cast<double>(a.kick_chain_len.PercentileUpperBound(0.99)),
              "count");
  report->Add("core.stash_items", static_cast<double>(table.stash_size()),
              "count");
}

namespace {

/// One request of the ladder stream: read keys and pipelined writes.
struct LadderReq {
  std::vector<std::string_view> reads;
  std::vector<uint32_t> read_ids;
  std::vector<uint32_t> write_ids;
};

/// One pass's writes: per request, (version, value) for each written key.
using PassWrites = std::vector<std::vector<std::pair<uint32_t, std::string>>>;

/// p50 of per-request durations of one pass, in ns.
double PassP50(std::vector<double>* ns) { return Quantile(ns, 0.5); }

}  // namespace

void MeasureServerLayers(ServerProbe& p, const Args& args, SpanLog* spans,
                         Report* report) {
  SpanBuffer* sb = spans->NewBuffer("probe.server", 1 << 16);
  Store& store = p.server->store();
  Sharded& table = store.table();
  const KeySet& keys = *p.keys;
  const ValueGen& values = *p.values;
  const size_t B = p.keys_per_request;
  const size_t R = p.sets.size();
  const mccuckoo::ServerMetricsSnapshot ladder_before =
      p.server->metrics_snapshot();

  std::vector<LadderReq> reqs(R);
  {
    size_t w = 0;
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = 0; i < B; ++i) {
        const uint32_t id = p.reads[r * B + i];
        reqs[r].reads.push_back(keys.Key(id));
        reqs[r].read_ids.push_back(id);
      }
      for (size_t i = 0; i < p.sets[r]; ++i) {
        reqs[r].write_ids.push_back(p.writes[w++]);
      }
    }
  }
  uint64_t checked = 0, bad = 0;
  std::string scratch;
  auto check = [&](std::string_view got, uint32_t id, uint32_t lo) {
    ++checked;
    if (!values.Check(got, id, lo, p.versions->High(id), &scratch)) {
      ++bad;
      report->Fail("ladder: wrong value for key id " + std::to_string(id));
    }
  };

  // Next-version values for one pass's writes, generated untimed.
  auto make_writes = [&](PassWrites* w) {
    w->assign(R, {});
    for (size_t r = 0; r < R; ++r) {
      for (const uint32_t id : reqs[r].write_ids) {
        const uint32_t v = p.versions->BeginWrite(id);
        std::string val;
        values.Fill(id, v, &val);
        (*w)[r].emplace_back(v, std::move(val));
      }
    }
  };
  auto end_writes = [&](const PassWrites& w) {
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = 0; i < w[r].size(); ++i) {
        p.versions->EndWrite(reqs[r].write_ids[i], w[r][i].first);
      }
    }
  };

  const int reps = 3;
  const uint64_t store_seed = p.store_options.seed;
  const mccuckoo::TableOptions topt = StoreTableOptions(p.store_options);
  const mccuckoo::HashFamily<uint64_t, mccuckoo::XxHasher> family(
      3, topt.buckets_per_table, store_seed);

  // Rung 1: hash family only.
  std::vector<double> rung_hash, rung_core, rung_item, rung_proto;
  uint64_t keys_hashed = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> ns(R);
    uint64_t acc = 0;
    for (size_t r = 0; r < R; ++r) {
      ScopedSpan s(sb, "hash", "ladder.hash", r);
      const uint64_t t0 = NowNs();
      for (const auto k : reqs[r].reads) {
        const uint64_t h = StoreTableKey(store_seed, k);
        acc += family.Buckets(h)[0];
      }
      for (const uint32_t id : reqs[r].write_ids) {
        const uint64_t h = StoreTableKey(store_seed, keys.Key(id));
        acc += family.Buckets(h)[0];
      }
      ns[r] = static_cast<double>(NowNs() - t0);
      if (rep == 0) {
        keys_hashed += reqs[r].reads.size() + reqs[r].write_ids.size();
      }
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    rung_hash.push_back(PassP50(&ns));
  }

  // Rung 2: + the table (Find / FindBatch; writes re-assign their value).
  std::vector<uint64_t> hs(std::max<size_t>(B, 1));
  std::vector<uint64_t> hv(std::max<size_t>(B, 1));
  std::unique_ptr<bool[]> hf(new bool[std::max<size_t>(B, 1)]);
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> ns(R);
    uint64_t miss = 0;
    for (size_t r = 0; r < R; ++r) {
      ScopedSpan s(sb, "core", "ladder.core", r);
      const uint64_t t0 = NowNs();
      if (B == 1) {
        miss += !table.Find(StoreTableKey(store_seed, reqs[r].reads[0]),
                            &hv[0]);
      } else {
        for (size_t i = 0; i < B; ++i) {
          hs[i] = StoreTableKey(store_seed, reqs[r].reads[i]);
        }
        miss += B - table.FindBatch(std::span<const uint64_t>(hs.data(), B),
                                    hv.data(), hf.get());
      }
      for (const uint32_t id : reqs[r].write_ids) {
        const uint64_t h = StoreTableKey(store_seed, keys.Key(id));
        uint64_t v = 0;
        if (table.Find(h, &v)) {
          table.InsertOrAssign(h, v);
        } else {
          ++miss;
        }
      }
      ns[r] = static_cast<double>(NowNs() - t0);
    }
    report->Count(R, miss);
    if (miss > 0) report->Fail("ladder: table key of a stored key not found");
    rung_core.push_back(PassP50(&ns));
  }

  // Rung 3: + the item layer (Get / GetBatch / Set).
  std::vector<std::string> bvals;
  std::vector<uint8_t> bfound;
  std::string gv;
  for (int rep = 0; rep < reps; ++rep) {
    PassWrites w;
    make_writes(&w);
    std::vector<double> ns(R);
    std::vector<uint32_t> lo(B);
    uint64_t fails = 0;
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = 0; i < B; ++i) {
        lo[i] = p.versions->Low(reqs[r].read_ids[i]);
      }
      ScopedSpan s(sb, "item_store", "ladder.item_store", r);
      const uint64_t t0 = NowNs();
      if (B == 1) {
        bfound.assign(1, store.Get(reqs[r].reads[0], &gv) ? 1 : 0);
      } else {
        store.GetBatch(std::span<const std::string_view>(reqs[r].reads),
                       &bvals, &bfound);
      }
      for (size_t i = 0; i < w[r].size(); ++i) {
        fails += !store.Set(keys.Key(reqs[r].write_ids[i]), w[r][i].second, 0)
                      .ok();
      }
      ns[r] = static_cast<double>(NowNs() - t0);
      for (size_t i = 0; i < B; ++i) {
        if (!bfound[i]) {
          ++bad;
          report->Fail("ladder: stored key missing from the item layer");
          continue;
        }
        check(B == 1 ? std::string_view(gv) : std::string_view(bvals[i]),
              reqs[r].read_ids[i], lo[i]);
      }
    }
    end_writes(w);
    report->Count(R, fails);
    if (fails > 0) report->Fail("ladder: Set failed");
    rung_item.push_back(PassP50(&ns));
  }

  // Rung 4: + protocol parse, handler and serialize on an in-memory
  // connection (no socket).
  ms::StoreHandler handler(&store);
  ms::Connection conn(&handler, nullptr, nullptr);
  uint64_t bytes_out = 0, proto_reqs = 0;
  std::vector<std::string> frames(R);
  for (int rep = 0; rep < reps; ++rep) {
    PassWrites w;
    make_writes(&w);
    uint32_t opaque = 1;
    for (size_t r = 0; r < R; ++r) {
      frames[r].clear();
      if (B == 1) {
        ms::AppendGetRequest(&frames[r], reqs[r].reads[0], opaque++);
      } else {
        ms::AppendMgetRequest(&frames[r], reqs[r].reads, opaque++);
      }
      for (size_t i = 0; i < w[r].size(); ++i) {
        ms::AppendSetRequest(&frames[r], keys.Key(reqs[r].write_ids[i]),
                             w[r][i].second, 0, opaque++);
      }
    }
    std::vector<double> ns(R);
    for (size_t r = 0; r < R; ++r) {
      bool open = true;
      {
        ScopedSpan s(sb, "protocol.on_data", "ladder.protocol", r);
        const uint64_t t0 = NowNs();
        open = conn.OnData(frames[r].data(), frames[r].size());
        ns[r] = static_cast<double>(NowNs() - t0);
      }
      if (!open) {
        ++bad;
        report->Fail("ladder: connection rejected a well-formed frame");
      }
      bytes_out += conn.outbuf().size();
      ++proto_reqs;
      // Every response must be OK (GET hits, MGET, SET acks).
      std::string_view out = conn.outbuf();
      while (!out.empty()) {
        ms::Response resp;
        const ms::ParseOutcome o = ms::ParseResponse(out, &resp);
        if (o.status != ms::ParseStatus::kOk ||
            resp.status != ms::RespStatus::kOk) {
          ++bad;
          report->Fail("ladder: in-memory connection answered an error");
          break;
        }
        out.remove_prefix(o.consumed);
      }
      conn.outbuf().clear();
    }
    end_writes(w);
    rung_proto.push_back(PassP50(&ns));
  }

  // Rung 5: + sockets, epoll and the server's worker thread: a loopback
  // round trip, one request in flight.
  LoopbackConn lc;
  if (!lc.Connect(p.server->port())) {
    report->Fail("ladder: cannot connect to the server");
    report->Count(1, 1);
    return;
  }
  RoundTripper rt(&lc);
  std::vector<double> rtt_ns, enc_ns, dec_ns;
  const CpuSample cpu0 = ProcessCpu();
  uint64_t loop_reqs = 0;
  std::vector<SetOp> sets;
  for (int rep = 0; rep < reps; ++rep) {
    PassWrites w;
    make_writes(&w);
    std::vector<double> ns(R);
    std::vector<uint32_t> lo(B);
    for (size_t r = 0; r < R; ++r) {
      for (size_t i = 0; i < B; ++i) {
        lo[i] = p.versions->Low(reqs[r].read_ids[i]);
      }
      sets.clear();
      for (size_t i = 0; i < w[r].size(); ++i) {
        sets.push_back({keys.Key(reqs[r].write_ids[i]), w[r][i].second});
      }
      const uint64_t t0 = NowNs();
      const bool ok = rt.Run(reqs[r].reads, sets, sb, "ladder.loopback", r);
      const uint64_t t1 = NowNs();
      if (!ok) {
        ++bad;
        report->Count(checked, bad);
        report->Fail(std::string("ladder: loopback round trip failed: ") +
                     rt.error());
        return;
      }
      sb->Add("ladder.loopback", "", r, t0, t1);
      ns[r] = static_cast<double>(t1 - t0);
      enc_ns.push_back(static_cast<double>(rt.encode_ns()));
      dec_ns.push_back(static_cast<double>(rt.decode_ns()));
      ++loop_reqs;
      for (size_t i = 0; i < B; ++i) {
        if (!rt.reads()[i].found) {
          ++bad;
          report->Fail("ladder: miss on a stored key over loopback");
          continue;
        }
        check(rt.reads()[i].value, reqs[r].read_ids[i], lo[i]);
      }
    }
    end_writes(w);
    rtt_ns.push_back(PassP50(&ns));
  }
  const CpuSample cpu1 = ProcessCpu();
  report->Count(checked, bad);

  const double hash_ns = Median(rung_hash);
  const double core_ns = Median(rung_core);
  const double item_ns = Median(rung_item);
  const double proto_ns = Median(rung_proto);
  const double loop_ns = Median(rtt_ns);
  const double encode_ns = Median(enc_ns);
  const double decode_ns = Median(dec_ns);
  report->Add("hash.ns_per_key",
              hash_ns / std::max(1.0, static_cast<double>(keys_hashed) /
                                          static_cast<double>(R)),
              "ns");
  report->Add("ladder.hash_us", hash_ns / 1e3, "us");
  report->Add("ladder.core_us", core_ns / 1e3, "us");
  report->Add("ladder.item_store_us", item_ns / 1e3, "us");
  report->Add("ladder.protocol_us", proto_ns / 1e3, "us");
  report->Add("ladder.loopback_us", loop_ns / 1e3, "us");
  // Without a workload round trip of its own (table_rw) there is
  // nothing left to explain.
  report->Add("ladder.residual_us",
              p.workload_p50_us > 0 ? p.workload_p50_us - loop_ns / 1e3 : 0.0,
              "us");
  report->Add("protocol.get_ns", proto_ns, "ns");
  report->Add("protocol.self_ns", proto_ns - item_ns, "ns");
  report->Add("protocol.bytes_out_per_req",
              Frac(bytes_out, std::max<uint64_t>(1, proto_reqs)), "bytes");
  report->Add("client.encode_ns", encode_ns, "ns");
  report->Add("client.decode_ns", decode_ns, "ns");
  report->Add("event_loop.self_us",
              (loop_ns - proto_ns - encode_ns - decode_ns) / 1e3, "us");
  report->Add("event_loop.sys_cpu_frac",
              Frac(cpu1.sys_ns - cpu0.sys_ns,
                   cpu1.total_ns() - cpu0.total_ns()),
              "fraction");
  report->Add("event_loop.ctx_switches_per_req",
              Frac(cpu1.ctx_switches - cpu0.ctx_switches, loop_reqs), "count");

  // Item-layer calls one at a time over the stream's read keys.
  std::vector<std::string_view> flat;
  std::vector<uint32_t> flat_ids;
  for (const auto& r : reqs) {
    flat.insert(flat.end(), r.reads.begin(), r.reads.end());
    flat_ids.insert(flat_ids.end(), r.read_ids.begin(), r.read_ids.end());
  }
  const double min_s = args.smoke ? 0.01 : 0.1;
  auto get_pass = [&]() -> uint64_t {
    ScopedSpan s(sb, "item_store.get", "probe.item_store", 0);
    uint64_t hit = 0;
    for (const auto k : flat) hit += store.Get(k, &gv);
    g_sink.fetch_add(hit, std::memory_order_relaxed);
    return flat.size();
  };
  report->Add("item_store.get_ns", MedianNsPerOp(get_pass, min_s), "ns");
  auto get_batch_pass = [&]() -> uint64_t {
    ScopedSpan s(sb, "item_store.get_batch", "probe.item_store", 0);
    constexpr size_t kB = 32;
    const size_t whole = flat.size() / kB * kB;
    uint64_t hit = 0;
    for (size_t i = 0; i < whole; i += kB) {
      hit += store.GetBatch(std::span<const std::string_view>(&flat[i], kB),
                            &bvals, &bfound);
    }
    g_sink.fetch_add(hit, std::memory_order_relaxed);
    return std::max<size_t>(1, whole);
  };
  report->Add("item_store.getbatch_ns_per_key",
              MedianNsPerOp(get_batch_pass, min_s), "ns");
  {
    // Sets rewrite read keys at their next version (tracked, so they stay
    // checkable), values generated before the timed loop.
    const size_t n = std::min<size_t>(flat_ids.size(), 4096);
    std::vector<double> set_ns;
    for (int rep = 0; rep < reps; ++rep) {
      ScopedSpan s(sb, "item_store.set", "probe.item_store", 0);
      std::vector<std::pair<uint32_t, std::string>> w(n);
      for (size_t i = 0; i < n; ++i) {
        w[i].first = p.versions->BeginWrite(flat_ids[i]);
        values.Fill(flat_ids[i], w[i].first, &w[i].second);
      }
      uint64_t fails = 0;
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        fails += !store.Set(keys.Key(flat_ids[i]), w[i].second, 0).ok();
      }
      set_ns.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(std::max<size_t>(1, n)));
      for (size_t i = 0; i < n; ++i) {
        p.versions->EndWrite(flat_ids[i], w[i].first);
      }
      report->Count(n, fails);
      if (fails > 0) report->Fail("item_store.set probe: Set failed");
    }
    report->Add("item_store.set_ns", Median(set_ns), "ns");
  }

  const mccuckoo::ServerMetricsSnapshot& b =
      p.has_phase ? p.phase_before : ladder_before;
  const mccuckoo::ServerMetricsSnapshot a =
      p.has_phase ? p.phase_after : p.server->metrics_snapshot();
  const uint64_t lookups =
      (a.get_hits - b.get_hits) + (a.get_misses - b.get_misses);
  report->Add("item_store.hit_frac", Frac(a.get_hits - b.get_hits, lookups),
              "fraction");
  report->Add("protocol.batched_lookup_frac",
              Frac(a.batched_lookups - b.batched_lookups, lookups), "fraction");
  report->Add("item_store.evictions",
              static_cast<double>(a.evictions_capacity + a.evictions_pressure),
              "count");
  report->Add("item_store.hash_collisions",
              static_cast<double>(a.hash_collisions), "count");

  // Open-loop GETs over the same keys (the server is otherwise idle now).
  OpenLoopInput ol;
  ol.server = p.server;
  ol.keys = p.keys;
  ol.values = p.values;
  ol.versions = p.versions;
  ol.ids = p.reads;
  MeasureOpenLoop(ol, args, spans, report);
}

}  // namespace perfbench
