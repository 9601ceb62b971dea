#include "mcbench/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanBuffer* SpanLog::NewBuffer(const std::string& thread_name,
                               size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(
      std::make_unique<SpanBuffer>(thread_name, capacity, enabled_));
  return buffers_.back().get();
}

uint64_t SpanLog::total_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

uint64_t SpanLog::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = UINT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) base = std::min(base, s.start_ns);
  }
  if (base == UINT64_MAX) base = 0;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  for (size_t tid = 0; tid < buffers_.size(); ++tid) {
    const SpanBuffer& b = *buffers_[tid];
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", tid + 1, b.thread_name().c_str());
    first = false;
    for (const Span& s : b.spans()) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"request\": %llu, \"parent\": \"%s\"}}",
                   s.name, tid + 1,
                   static_cast<double>(s.start_ns - base) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(s.request), s.parent);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
