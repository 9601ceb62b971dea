#include "mcbench/harness.h"

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/common/rng.h"
#include "src/obs/timing.h"

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

uint64_t TimevalNs(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(tv.tv_usec) * 1000ull;
}

CpuSample FromRusage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuSample s;
  s.user_ns = TimevalNs(ru.ru_utime);
  s.sys_ns = TimevalNs(ru.ru_stime);
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return s;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit});
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_.fetch_add(attempted);
  failed_.fetch_add(failed);
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 8) {
    failures_.push_back(what);
  } else {
    ++failures_dropped_;
  }
}

void Report::SetContext(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  context_.emplace_back(key, value);
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_.load() == 0 && failures_.empty() && attempted_.load() > 0;
}

std::string Report::ToJson() const {
  const bool ok = correct();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_.load());
  out += ", \"failed\": " + std::to_string(failed_.load());
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (i ? ", " : "") + std::string("\"") + JsonEscape(m.name) +
           "\": {\"value\": " + num + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  }
  out += "}, \"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + JsonEscape(context_[i].first) +
           "\": \"" + JsonEscape(context_[i].second) + "\"";
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + JsonEscape(failures_[i]) +
           "\"";
  }
  if (failures_dropped_ > 0) {
    out += ", \"... and " + std::to_string(failures_dropped_) + " more\"";
  }
  out += "]}";
  return out;
}

uint64_t NowNs() { return mccuckoo::NowNs(); }

CpuSample ProcessCpu() { return FromRusage(RUSAGE_SELF); }

uint64_t RssBytes() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  f >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCpuNs(std::thread& t) {
  clockid_t id;
  timespec ts{};
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0 ||
      clock_gettime(id, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::vector<double> Window::Within(const std::vector<TimedSample>& s) const {
  std::vector<double> v;
  for (const TimedSample& x : s) {
    if (x.end_ns > start_ns && x.end_ns <= end_ns) v.push_back(x.value);
  }
  return v;
}

Window MeasureWindow(double seconds, const std::function<uint64_t()>& ops,
                     const std::function<uint64_t()>& cpu_ns) {
  Window w;
  const uint64_t ops0 = ops();
  const uint64_t cpu0 = cpu_ns();
  w.start_ns = NowNs();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  w.end_ns = NowNs();
  const uint64_t cpu1 = cpu_ns();
  w.ops = ops() - ops0;
  w.cpu_ns = cpu1 > cpu0 ? cpu1 - cpu0 : 0;
  w.ops_per_s = static_cast<double>(w.ops) / w.seconds();
  return w;
}

KeySet::KeySet(uint64_t n, uint64_t seed) : n_(n), buf_(n * kKeyLen, '\0') {
  const uint64_t salt = mccuckoo::SplitMix64(seed ^ 0x6B657973616C74ull);
  char tmp[kKeyLen + 1];
  for (uint64_t id = 0; id < n; ++id) {
    // SplitMix64 is a bijection on 64 bits, so distinct ids give distinct
    // keys.
    std::snprintf(tmp, sizeof(tmp), "k%016llx",
                  static_cast<unsigned long long>(
                      mccuckoo::SplitMix64(salt + id)));
    std::memcpy(buf_.data() + id * kKeyLen, tmp, kKeyLen);
  }
}

ValueGen::ValueGen(uint64_t seed, size_t min_len, size_t max_len)
    : salt_(mccuckoo::SplitMix64(seed ^ 0x76616C756573ull)),
      min_len_(std::max<size_t>(8, min_len)),
      max_len_(std::max(max_len, std::max<size_t>(8, min_len))) {}

size_t ValueGen::Len(uint32_t key_id, uint32_t version) const {
  if (min_len_ == max_len_) return min_len_;
  const uint64_t h = mccuckoo::SplitMix64(
      salt_ ^ (static_cast<uint64_t>(key_id) << 32 | version) ^ 0x4C454Eull);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double lo = std::log(static_cast<double>(min_len_));
  const double hi = std::log(static_cast<double>(max_len_));
  const size_t len =
      static_cast<size_t>(std::llround(std::exp(lo + u * (hi - lo))));
  return std::clamp(len, min_len_, max_len_);
}

void ValueGen::Fill(uint32_t key_id, uint32_t version,
                    std::string* out) const {
  const size_t len = Len(key_id, version);
  out->resize(len);
  char* p = out->data();
  std::memcpy(p, &key_id, 4);
  std::memcpy(p + 4, &version, 4);
  uint64_t x = salt_ ^ (static_cast<uint64_t>(key_id) << 32 | version);
  for (size_t off = 8; off < len; off += 8) {
    x = mccuckoo::SplitMix64(x);
    std::memcpy(p + off, &x, std::min<size_t>(8, len - off));
  }
}

bool ValueGen::Check(std::string_view got, uint32_t key_id, uint32_t lo,
                     uint32_t hi, std::string* scratch) const {
  if (got.size() < 8) return false;
  uint32_t kid = 0;
  uint32_t ver = 0;
  std::memcpy(&kid, got.data(), 4);
  std::memcpy(&ver, got.data() + 4, 4);
  if (kid != key_id || ver < lo || ver > hi) return false;
  Fill(key_id, ver, scratch);
  return got == *scratch;
}

VersionTable::VersionTable(uint64_t n)
    : issued_(new std::atomic<uint32_t>[n]),
      committed_(new std::atomic<uint32_t>[n]) {
  for (uint64_t i = 0; i < n; ++i) {
    issued_[i].store(0, std::memory_order_relaxed);
    committed_[i].store(0, std::memory_order_relaxed);
  }
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace perfbench
