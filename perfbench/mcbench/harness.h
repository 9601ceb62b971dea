// Shared plumbing of the benchmark: arguments, the metric report, CPU and
// memory probes, order statistics, and the generated keys and values the
// correctness checks compare against.
//
// Every input is derived from the run's --seed: key strings, value bytes
// and lengths, popularity ranks and operation streams. The programs under
// test only ever see these generated inputs.

#ifndef PERFBENCH_MCBENCH_HARNESS_H_
#define PERFBENCH_MCBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the smoke test: same code paths, seconds of runtime.
  bool smoke = false;
  /// Where a traced run writes its chrome-trace JSON.
  std::string trace_out = "perfbench_trace.json";
};

/// Named metrics with units plus the correctness tallies of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds a correctness outcome tally (thread-safe).
  void Count(uint64_t attempted, uint64_t failed);
  /// Records one failed check with a short description (first few kept).
  void Fail(const std::string& what);
  void SetContext(const std::string& key, const std::string& value);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// Something was checked and nothing failed.
  bool correct() const;

  /// One JSON object: correct/attempted/failed/metrics/context/failures.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  uint64_t failures_dropped_ = 0;
};

// --- Time, CPU and memory --------------------------------------------------

uint64_t NowNs();

struct CpuSample {
  uint64_t user_ns = 0;
  uint64_t sys_ns = 0;
  uint64_t ctx_switches = 0;  ///< Voluntary + involuntary.
  uint64_t total_ns() const { return user_ns + sys_ns; }
};
/// The process's user/sys CPU and context switches (getrusage).
CpuSample ProcessCpu();

uint64_t RssBytes();
/// RSS growth from `before` to `after` per item (0 if RSS shrank).
inline double RssPerItem(uint64_t before, uint64_t after, uint64_t items) {
  return static_cast<double>(after > before ? after - before : 0) /
         static_cast<double>(items ? items : 1);
}
/// Returns freed heap to the OS so the next set-up's RSS growth is its own.
void TrimHeap();

/// Precise CPU time (ns): the whole process, and one running thread.
uint64_t ProcessCpuNs();
uint64_t ThreadCpuNs(std::thread& t);

// --- Order statistics --------------------------------------------------------

/// Nearest-rank quantile q in [0, 1]; sorts `v` in place. 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// A sample stamped with when it completed, e.g. one request's latency.
struct TimedSample {
  uint64_t end_ns;
  double value;
};

/// One measured phase, taken whole (its ops, time and CPU), so every stall
/// inside the phase counts.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t ops = 0;
  uint64_t cpu_ns = 0;
  double ops_per_s = 0;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
  /// The values of the samples that completed within the window.
  std::vector<double> Within(const std::vector<TimedSample>& s) const;
};

/// Totals over several measured windows: ops over time, CPU over ops, and
/// quantiles over every sample, so each window counts by its length.
struct Totals {
  uint64_t ops = 0;
  double seconds = 0;
  uint64_t cpu_ns = 0;
  std::vector<double> samples;
  void Add(const Window& w, const std::vector<double>& s) {
    ops += w.ops;
    seconds += w.seconds();
    cpu_ns += w.cpu_ns;
    samples.insert(samples.end(), s.begin(), s.end());
  }
  double ops_per_s() const { return static_cast<double>(ops) / seconds; }
  double cpu_us_per_op() const {
    return static_cast<double>(cpu_ns) / 1e3 /
           static_cast<double>(ops ? ops : 1);
  }
};

/// Sleeps for `seconds` while the phase runs. `ops()` is the running op
/// count and `cpu_ns()` the CPU charged to the system under test so far.
Window MeasureWindow(double seconds, const std::function<uint64_t()>& ops,
                     const std::function<uint64_t()>& cpu_ns);

// --- Generated inputs --------------------------------------------------------

/// A fixed population of distinct 17-byte string keys, "k" + 16 hex digits
/// of a seed-salted bijective scramble of the key id, in one flat buffer.
class KeySet {
 public:
  KeySet(uint64_t n, uint64_t seed);
  uint64_t size() const { return n_; }
  std::string_view Key(uint64_t id) const {
    return {buf_.data() + id * kKeyLen, kKeyLen};
  }
  static constexpr size_t kKeyLen = 17;

 private:
  uint64_t n_;
  std::string buf_;
};

/// Values derived from (key id, version). The first 8 bytes carry both
/// numbers; the rest are seed-salted pseudo-random bytes; the length is
/// log-uniform in [min_len, max_len]. A received value is checked
/// byte-for-byte against the one the generator would have written.
class ValueGen {
 public:
  ValueGen(uint64_t seed, size_t min_len, size_t max_len);
  size_t Len(uint32_t key_id, uint32_t version) const;
  void Fill(uint32_t key_id, uint32_t version, std::string* out) const;
  /// True if `got` is exactly the value of `key_id` at some version in
  /// [lo, hi]. `scratch` is caller-owned to avoid an allocation per check.
  bool Check(std::string_view got, uint32_t key_id, uint32_t lo, uint32_t hi,
             std::string* scratch) const;

 private:
  uint64_t salt_;
  size_t min_len_;
  size_t max_len_;
};

/// Per-key version bounds for checking reads that race writes. Each key
/// has one writer; a reader accepts any version between the last one
/// acknowledged before its request was sent and the last one issued
/// after its reply arrived.
class VersionTable {
 public:
  explicit VersionTable(uint64_t n);
  uint32_t BeginWrite(uint64_t id) {
    const uint32_t v = issued_[id].load(std::memory_order_relaxed) + 1;
    issued_[id].store(v, std::memory_order_release);
    return v;
  }
  void EndWrite(uint64_t id, uint32_t v) {
    committed_[id].store(v, std::memory_order_release);
  }
  uint32_t Low(uint64_t id) const {
    return committed_[id].load(std::memory_order_acquire);
  }
  uint32_t High(uint64_t id) const {
    return issued_[id].load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> committed_;
};

/// Worker threads table_rw uses and the host's CPU count.
int HostThreads();

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_HARNESS_H_
