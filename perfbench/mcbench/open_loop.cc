#include "mcbench/open_loop.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "mcbench/net.h"
#include "src/common/rng.h"
#include "src/server/protocol.h"

namespace perfbench {

namespace ms = mccuckoo::server;

namespace {

constexpr int kGenerators = 2;  // one connection each
// The fixed offered rate, below the knee of a 2-worker server.
constexpr double kReferenceRate = 12000.0;

struct GenOut {
  std::vector<double> lat_us;  ///< Per request, from its due time.
  std::vector<double> lag_us;
  uint64_t sent = 0;
  uint64_t errors = 0;
  uint64_t backlog_max = 0;
  bool broken = false;
};

/// One connection's share of the load: Poisson arrivals at `rate` for
/// `seconds`; each request is sent when due, regardless of replies.
GenOut Generate(const OpenLoopInput& in, LoopbackConn* conn, double rate,
                double seconds, uint64_t seed, size_t cursor, SpanBuffer* sb,
                Report* report) {
  struct Inflight {
    uint64_t due;
    uint32_t id;
    uint32_t opaque;
  };
  GenOut out;
  mccuckoo::Xoshiro256 rng(seed);
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(rate * seconds)));
  out.lat_us.reserve(target);
  out.lag_us.reserve(target);
  std::vector<Inflight> q;  // FIFO: [head, q.size())
  size_t head = 0;
  std::string sendbuf, recvbuf, scratch;
  size_t send_off = 0;
  const double mean_gap_ns = 1e9 / rate;
  const uint64_t start = NowNs();
  double next_due = static_cast<double>(start);
  const uint64_t give_up = start + static_cast<uint64_t>((seconds + 5.0) * 1e9);
  uint32_t opaque = 1;
  while (true) {
    uint64_t now = NowNs();
    while (out.sent < target && next_due <= static_cast<double>(now)) {
      const uint32_t id = in.ids[cursor++ % in.ids.size()];
      const uint64_t due = static_cast<uint64_t>(next_due);
      ms::AppendGetRequest(&sendbuf, in.keys->Key(id), opaque);
      q.push_back({due, id, opaque++});
      out.lag_us.push_back(static_cast<double>(now - due) / 1e3);
      ++out.sent;
      next_due += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    }
    out.backlog_max = std::max<uint64_t>(out.backlog_max, q.size() - head);
    if (send_off < sendbuf.size()) {
      const ssize_t n =
          conn->SendSome(sendbuf.data() + send_off, sendbuf.size() - send_off);
      if (n < 0) {
        out.broken = true;
        break;
      }
      send_off += static_cast<size_t>(n);
      if (send_off == sendbuf.size()) {
        sendbuf.clear();
        send_off = 0;
      }
    }
    const ssize_t got = conn->RecvInto(&recvbuf, false);
    if (got < 0) {
      out.broken = true;
      break;
    }
    if (got > 0) {
      now = NowNs();
      size_t off = 0;
      while (head < q.size()) {
        ms::Response resp;
        const ms::ParseOutcome o =
            ms::ParseResponse(std::string_view(recvbuf).substr(off), &resp);
        if (o.status == ms::ParseStatus::kNeedMore) break;
        const Inflight f = q[head++];
        out.lat_us.push_back(static_cast<double>(now - f.due) / 1e3);
        sb->Add("client.open_loop_request", "", f.opaque, f.due, now);
        bool ok = o.status == ms::ParseStatus::kOk &&
                  resp.opaque == f.opaque && resp.status == ms::RespStatus::kOk;
        if (ok) {
          ok = in.values->Check(resp.body, f.id, in.versions->Low(f.id),
                                in.versions->High(f.id), &scratch);
        }
        if (!ok) {
          ++out.errors;
          report->Fail(resp.status == ms::RespStatus::kNotFound
                           ? "open loop: miss on a stored key"
                           : "open loop: wrong or failed GET response");
        }
        if (o.status != ms::ParseStatus::kOk) {
          out.broken = true;
          break;
        }
        off += o.consumed;
      }
      recvbuf.erase(0, off);
      if (out.broken) break;
      if (head == q.size()) {
        q.clear();
        head = 0;
      }
    }
    if (out.sent == target && head == q.size()) break;
    if (now > give_up) {
      out.broken = true;
      break;
    }
  }
  if (out.broken) {
    out.errors += (q.size() - head) + (target - out.sent);
    report->Fail("open loop: connection failed or timed out");
  }
  return out;
}

}  // namespace

void MeasureOpenLoop(const OpenLoopInput& in, const Args& args, SpanLog* spans,
                     Report* report) {
  std::vector<std::unique_ptr<LoopbackConn>> conns;
  std::vector<SpanBuffer*> sbs;
  for (int c = 0; c < kGenerators; ++c) {
    conns.push_back(std::make_unique<LoopbackConn>());
    if (!conns.back()->Connect(in.server->port())) {
      report->Fail("open loop: cannot connect to the server");
      report->Count(1, 1);
      return;
    }
    sbs.push_back(spans->NewBuffer("open_loop." + std::to_string(c), 1 << 14));
  }
  const uint64_t seed = mccuckoo::SplitMix64(args.seed ^ 0x6F70656E6C6Full);
  const double seconds = args.smoke ? 0.2 : 2.0;
  std::vector<GenOut> outs(conns.size());
  std::vector<std::thread> ts;
  for (size_t c = 0; c < conns.size(); ++c) {
    ts.emplace_back([&, c] {
      outs[c] = Generate(in, conns[c].get(),
                         kReferenceRate / static_cast<double>(conns.size()),
                         seconds, mccuckoo::SplitMix64(seed + c), c * 7919,
                         sbs[c], report);
    });
  }
  for (auto& t : ts) t.join();
  std::vector<double> lat, lag;
  uint64_t attempted = 0, errors = 0, backlog_max = 0;
  for (const GenOut& o : outs) {
    lat.insert(lat.end(), o.lat_us.begin(), o.lat_us.end());
    lag.insert(lag.end(), o.lag_us.begin(), o.lag_us.end());
    attempted += o.sent;
    errors += o.errors;
    backlog_max = std::max(backlog_max, o.backlog_max);
  }
  report->Count(attempted, errors);
  report->Add("client.gen_lag_p99_us", Quantile(&lag, 0.99), "us");
  report->Add("client.backlog_max", static_cast<double>(backlog_max), "count");
  report->Add("client.open_loop_p50_us", Quantile(&lat, 0.50), "us");
  report->Add("client.open_loop_p99_us", Quantile(&lat, 0.99), "us");
}

}  // namespace perfbench
