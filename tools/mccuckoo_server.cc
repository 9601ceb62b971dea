// mccuckoo_server: run the cache server from the command line.
//
//   tools/mccuckoo_server --port=11311 --threads=4 --shards=8
//
// Serves the binary cache protocol and the HTTP stats routes (/metrics,
// /json, /trace) on one 127.0.0.1 port. Prints a "listening on" line once
// the socket is bound — scripts (and the CI server job) wait for that line
// before connecting. Runs until SIGINT/SIGTERM or --duration elapses.
// A malformed command line or a numeric flag outside its range prints the
// usage line and exits with status 2.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <unistd.h>

#include "src/common/flags.h"
#include "src/server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: mccuckoo_server [--port=N] [--threads=N] "
               "[--shards=N] [--slots=N] [--max-bytes=N] [--sweep-ms=N] "
               "[--duration=SECONDS]\n");
  return 2;
}

/// Reads integer flag `name` (default `def`) into *out; false (with a
/// message) when the value lies outside [lo, hi].
bool GetIntInRange(const mccuckoo::Flags& flags, const char* name,
                   int64_t def, int64_t lo, int64_t hi, int64_t* out) {
  *out = flags.GetInt(name, def);
  if (*out >= lo && *out <= hi) return true;
  std::fprintf(stderr, "flag --%s=%lld: out of range [%lld, %lld]\n", name,
               static_cast<long long>(*out), static_cast<long long>(lo),
               static_cast<long long>(hi));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using mccuckoo::Flags;
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage();
  }
  const Flags& flags = parsed.value();

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t port, threads, sweep_ms, shards, slots, max_bytes, duration_s;
  if (!GetIntInRange(flags, "port", 0, 0, 65535, &port) ||
      !GetIntInRange(flags, "threads", 2, 0, 4096, &threads) ||
      !GetIntInRange(flags, "sweep-ms", 1000, 0, kMax, &sweep_ms) ||
      !GetIntInRange(flags, "shards", 8, 1,
                     mccuckoo::server::kMaxShards, &shards) ||
      !GetIntInRange(flags, "slots", 1 << 16, 0, kMax, &slots) ||
      !GetIntInRange(flags, "max-bytes", 0, 0, kMax, &max_bytes) ||
      !GetIntInRange(flags, "duration", 0, 0, kMax, &duration_s)) {
    return Usage();
  }

  mccuckoo::server::ServerOptions options;
  options.port = static_cast<uint16_t>(port);
  options.threads = std::max<int>(1, static_cast<int>(threads));
  options.sweep_interval_ms = static_cast<uint64_t>(sweep_ms);
  options.store.shards = static_cast<size_t>(shards);
  options.store.initial_slots = static_cast<uint64_t>(slots);
  options.store.max_bytes = static_cast<uint64_t>(max_bytes);

  mccuckoo::server::CacheServer server(options);
  if (mccuckoo::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (threads=%d shards=%zu)\n",
              server.port(), options.threads, options.store.shards);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  int64_t elapsed_s = 0;
  while (g_stop == 0 && (duration_s == 0 || elapsed_s < duration_s)) {
    ::sleep(1);
    ++elapsed_s;
  }

  server.Stop();
  const auto m = server.metrics_snapshot();
  std::printf("served %llu requests over %llu connections, %llu items live\n",
              static_cast<unsigned long long>(m.total_requests()),
              static_cast<unsigned long long>(m.connections_accepted),
              static_cast<unsigned long long>(m.items));
  return 0;
}
