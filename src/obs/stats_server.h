// Minimal blocking-socket HTTP endpoint for live table observability.
//
// One background thread, one connection at a time, four read-only GET
// routes — /metrics (Prometheus text), /json, /trace (chrome://tracing)
// and /heatmap — each rendered on demand by a caller-supplied handler,
// so the server knows nothing about tables: the owner binds closures
// that snapshot whatever it serves (one table, a sharded front-end, a
// merged fleet). A scrape therefore costs exactly one snapshot + export,
// and the hot path is never touched.
//
// Deliberately not a real HTTP server: no keep-alive, no TLS, no
// routing beyond exact paths, 127.0.0.1 only. That is the right shape
// for "curl it / point Prometheus at it on the same host" — and it
// keeps the implementation at one readable file with zero dependencies
// beyond POSIX sockets. Not compiled out under MCCUCKOO_NO_METRICS:
// the handlers then serve zeroed snapshots, which is itself useful for
// verifying a metrics-off deployment is alive.

#ifndef MCCUCKOO_OBS_STATS_SERVER_H_
#define MCCUCKOO_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "src/common/status.h"

namespace mccuckoo {

/// One render closure per route. Unset handlers answer 404, so a binary
/// can expose only what it has (e.g. no heatmap for a baseline-only run).
/// Handlers run on the server thread: they must be safe to call
/// concurrently with the owner's workload (SnapshotMetrics and the
/// exporters are; Heatmap() wants writer exclusion for exact numbers).
struct StatsHandlers {
  std::function<std::string()> metrics;  ///< /metrics — Prometheus text.
  std::function<std::string()> json;     ///< /json — ExportJson document.
  std::function<std::string()> trace;    ///< /trace — chrome://tracing JSON.
  std::function<std::string()> heatmap;  ///< /heatmap — ExportHeatmapJson.
};

/// Answers one stats request: parses the request line at the start of
/// `request` (a GET; anything else routes nowhere), serves /metrics /json
/// /trace /heatmap from `handlers` (null, or an unset handler, answers 404)
/// and `banner` on /, and returns the whole HTTP/1.1 response, framed with
/// Content-Length and Connection: close. Shared by StatsServer and the
/// cache server's HTTP mode (src/server/connection.h).
std::string RespondStatsHttp(std::string_view request,
                             const StatsHandlers* handlers,
                             std::string_view banner);

/// Blocking HTTP/1.0-style stats endpoint on 127.0.0.1.
class StatsServer {
 public:
  StatsServer() = default;
  ~StatsServer() { Stop(); }

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back via
  /// port()) and starts the accept loop on a background thread. Errors
  /// (port in use, out of fds) are returned, not thrown; the server is
  /// not running after a failed Start.
  Status Start(StatsHandlers handlers, uint16_t port = 0);

  /// Stops the accept loop and joins the thread. Idempotent; called by
  /// the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (valid after a successful Start; 0 otherwise).
  uint16_t port() const { return port_; }

  /// Requests answered so far (including 404s) — test/monitor hook.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  void HandleConnection(int fd);

  StatsHandlers handlers_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_STATS_SERVER_H_
