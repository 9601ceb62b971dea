// In-memory span recording for the traced run.
//
// Each thread appends to its own SpanBuffer (no locking on the hot path);
// SpanLog owns the buffers and writes them all out as chrome-trace JSON
// (chrome://tracing, Perfetto) once the run is over. A span names the layer
// call it wraps, the span that caused it, and the request it belongs to, so
// all spans of one request share an id.

#ifndef PERFBENCH_MCBENCH_SPANS_H_
#define PERFBENCH_MCBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mcbench/harness.h"

namespace perfbench {

struct Span {
  const char* name;
  const char* parent;  ///< Name of the causing span; "" for a root.
  uint64_t request;
  uint64_t start_ns;
  uint64_t end_ns;
};

class SpanBuffer {
 public:
  SpanBuffer(std::string thread_name, size_t capacity, bool enabled)
      : thread_name_(std::move(thread_name)),
        capacity_(capacity),
        enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity_);
  }

  bool enabled() const { return enabled_; }

  void Add(const char* name, const char* parent, uint64_t request,
           uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return;
    if (spans_.size() < capacity_) {
      spans_.push_back({name, parent, request, start_ns, end_ns});
    } else {
      ++dropped_;
    }
  }

  const std::string& thread_name() const { return thread_name_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::string thread_name_;
  size_t capacity_;
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Times one call into a layer and records it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, const char* parent,
             uint64_t request)
      : buf_(buf),
        name_(name),
        parent_(parent),
        request_(request),
        start_(buf != nullptr && buf->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr && buf_->enabled()) {
      buf_->Add(name_, parent_, request_, start_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  const char* name_;
  const char* parent_;
  uint64_t request_;
  uint64_t start_;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A new per-thread buffer owned by the log (call before starting the
  /// thread that fills it).
  SpanBuffer* NewBuffer(const std::string& thread_name,
                        size_t capacity = 1 << 15);

  uint64_t total_spans() const;
  /// Spans not kept because their thread's buffer was full.
  uint64_t total_dropped() const;

  /// Writes every buffer as one chrome-trace JSON file. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MCBENCH_SPANS_H_
