// Sampled wall-clock operation timing — the tail-latency side of the
// observability layer.
//
// The probe/kick-chain histograms in src/obs/metrics.h explain *why* an
// operation was slow; this recorder measures *how* slow, end to end, in
// nanoseconds. Reading the clock twice per operation would dominate a
// ~100 ns lookup, so the recorder times only 1 in N operations (N a
// power of two, configurable per table via TableOptions ::
// latency_sample_period): the un-sampled fast path is one relaxed
// fetch_add on the calling thread's own slot cell (SlotCounters, see
// metrics.h) and a mask test — no clock read, no shared cache line.
// Sampling is counter-based and therefore deterministic: each thread slot
// times operations 0, N, 2N, ... of each kind it sees, so a single thread
// running M operations records exactly ceil(M / N) samples (tests rely on
// this), and T threads record the sum of their slots' ceil(M_slot / N).
//
// Samples land in per-op Log2Histograms (insert / find / erase /
// find_batch / insert_batch); FoldInto() merges them into a
// MetricsSnapshot's op_latency_ns array, which is what the exporters
// render and what ShardedMcCuckoo sums across shards. Like TableMetrics,
// the recorder is thread-safe (relaxed atomics), not copyable, owned by
// each table behind a unique_ptr, and compiled down to a no-op shell
// under -DMCCUCKOO_NO_METRICS.

#ifndef MCCUCKOO_OBS_LATENCY_RECORDER_H_
#define MCCUCKOO_OBS_LATENCY_RECORDER_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/timing.h"

namespace mccuckoo {

#ifndef MCCUCKOO_NO_METRICS

class LatencyRecorder {
 public:
  /// Default 1-in-N period: 32 keeps the un-sampled path free of clock
  /// reads while a million-op run still collects ~31 k samples — enough
  /// for a stable p999 estimate.
  static constexpr uint32_t kDefaultSamplePeriod = 32;

  explicit LatencyRecorder(uint32_t sample_period = kDefaultSamplePeriod) {
    set_sample_period(sample_period);
  }

  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Sets the 1-in-N period, rounded up to a power of two; 0 disables
  /// sampling entirely (MaybeStart never reads the clock).
  void set_sample_period(uint32_t period) {
    period_ = period == 0 ? 0 : std::bit_ceil(period);
    mask_ = period_ == 0 ? 0 : period_ - 1;
  }

  /// Effective (power-of-two) period; 0 when disabled.
  uint32_t sample_period() const { return period_; }

  /// Call at operation entry: returns a start tick when this operation is
  /// sampled, 0 otherwise (NowNs() is never 0, so 0 is unambiguous).
  uint64_t MaybeStart(LatencyOp op) {
    if (period_ == 0) return 0;
    const uint64_t n = ops_.Add(static_cast<size_t>(op));
    if ((n & mask_) != 0) return 0;
    return NowNs();
  }

  /// Call at operation exit with MaybeStart's return; no-op for 0.
  void Finish(LatencyOp op, uint64_t start_ns) {
    if (start_ns == 0) return;
    hist_[static_cast<size_t>(op)].Record(NowNs() - start_ns);
  }

  /// Operations seen (sampled or not) of one kind, over all thread slots.
  uint64_t ops_seen(LatencyOp op) const {
    return ops_.Total(static_cast<size_t>(op));
  }

  /// One op's sampled-latency histogram.
  HistogramSnapshot SnapshotOp(LatencyOp op) const {
    return hist_[static_cast<size_t>(op)].Snapshot();
  }

  /// Merges the per-op histograms and the period into `s` (additive, so
  /// tables can fold on top of TableMetrics::Snapshot()'s output).
  void FoldInto(MetricsSnapshot* s) const {
    for (size_t i = 0; i < kLatencyOps; ++i) {
      s->op_latency_ns[i] += hist_[i].Snapshot();
    }
    if (period_ > s->latency_sample_period) {
      s->latency_sample_period = period_;
    }
  }

  /// Accumulates another recorder's samples (Rehash carries the history
  /// across the rebuild, mirroring TableMetrics::MergeFrom).
  void MergeFrom(const LatencyRecorder& o) {
    for (size_t i = 0; i < kLatencyOps; ++i) hist_[i].MergeFrom(o.hist_[i]);
    ops_.MergeFrom(o.ops_);
  }

  void Reset() {
    for (auto& h : hist_) h.Reset();
    ops_.Reset();
  }

 private:
  uint32_t period_ = kDefaultSamplePeriod;
  uint64_t mask_ = kDefaultSamplePeriod - 1;
  SlotCounters<kLatencyOps> ops_;  // per-op sampling counters, per slot
  std::array<Log2Histogram, kLatencyOps> hist_;
};

#else  // MCCUCKOO_NO_METRICS

/// No-op stand-in: call sites fold to nothing, no clock is ever read.
class LatencyRecorder {
 public:
  static constexpr uint32_t kDefaultSamplePeriod = 32;
  explicit LatencyRecorder(uint32_t = kDefaultSamplePeriod) {}
  void set_sample_period(uint32_t) {}
  uint32_t sample_period() const { return 0; }
  uint64_t MaybeStart(LatencyOp) { return 0; }
  void Finish(LatencyOp, uint64_t) {}
  uint64_t ops_seen(LatencyOp) const { return 0; }
  HistogramSnapshot SnapshotOp(LatencyOp) const { return {}; }
  void FoldInto(MetricsSnapshot*) const {}
  void MergeFrom(const LatencyRecorder&) {}
  void Reset() {}
};

#endif  // MCCUCKOO_NO_METRICS

/// Times one lexical scope as one operation — the one-line wiring the
/// tables use at their public entry points. Safe on every path: Finish()
/// ignores un-sampled (0) starts, and the destructor runs on early
/// returns too.
class ScopedLatencySample {
 public:
  ScopedLatencySample(LatencyRecorder* r, LatencyOp op)
      : r_(r), op_(op), start_(r->MaybeStart(op)) {}

  ScopedLatencySample(const ScopedLatencySample&) = delete;
  ScopedLatencySample& operator=(const ScopedLatencySample&) = delete;

  ~ScopedLatencySample() { r_->Finish(op_, start_); }

 private:
  LatencyRecorder* r_;
  LatencyOp op_;
  uint64_t start_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_OBS_LATENCY_RECORDER_H_
