// Seqlock-striped version array for optimistic lock-free reads (§III.H).
//
// The OneWriterManyReaders wrapper's shared_mutex makes every reader pay at
// least two atomic RMWs on one shared cache line — at high reader counts
// the lock word ping-pongs and caps throughput well below what the
// mutation-free FindNoStats path could sustain. The observation behind the
// optimistic protocol (Kuszmaul's kick-out eviction analysis, PAPERS.md) is
// that a kick chain is the *only* window in which a live key is absent from
// every bucket, so a reader that can detect "a writer touched one of my
// candidate buckets while I probed" may otherwise run with zero locks.
//
// This header provides the detection machinery:
//
//  * SeqlockArray — a power-of-two array of 32-bit version cells
//    ("stripes"), cache-line aligned, plus one auxiliary cell covering
//    whole-table state (the stash, exclusive maintenance). Buckets map to
//    stripes by low-bit masking; the mapping is independent of the table
//    size, so a Rehash can keep the same array. Odd version = a mutation of
//    some bucket in that stripe is in flight.
//  * SeqlockWriterSet — the writer-side open set. A multi-copy mutation
//    touches several buckets (all copies of a key, every bucket of a kick
//    chain), and the table must hold *all* of them odd until the operation
//    reaches a consistent state: bumping each bucket's stripe only around
//    its own store would let a reader validate cleanly between two chain
//    steps and miss the in-flight key. Open() is idempotent per stripe so
//    choke points can call it unconditionally; CloseAll() publishes at the
//    operation's commit point.
//  * SeqlockReadCritical — RAII ThreadSanitizer annotation scope for the
//    data reads of an optimistic attempt. The reads intentionally race
//    writer stores and are discarded on version mismatch; the runtime
//    AnnotateIgnoreReadsBegin/End pair (exported by libtsan) covers inlined
//    callees, which no_sanitize attributes do not.
//
// Memory ordering follows the standard seqlock recipe (Boehm, "Can
// seqlocks get along with programming language memory models?"):
//   writer:  v -> v+1 (relaxed store), release fence, data stores,
//            v+1 -> v+2 (release store)
//   reader:  v1 = load(acquire), data loads, acquire fence,
//            v2 = load(relaxed), valid iff v1 == v2 and v1 is even.
// The data loads themselves are plain (formally racy, as in every practical
// seqlock); a reader only acts on them after validation, and values are
// staged in locals so torn reads never escape. Versions wrap at 2^32;
// validation is an equality check, so wraparound is only observable if a
// reader sleeps across exactly 2^31 operations on one stripe.

#ifndef MCCUCKOO_CORE_SEQLOCK_H_
#define MCCUCKOO_CORE_SEQLOCK_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define MCCUCKOO_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCCUCKOO_THREAD_SANITIZER 1
#endif
#endif

#ifdef MCCUCKOO_THREAD_SANITIZER
extern "C" {
void AnnotateIgnoreReadsBegin(const char* file, int line);
void AnnotateIgnoreReadsEnd(const char* file, int line);
}
#endif

// GCC's -Wtsan (an error under -Werror) flags standalone atomic fences
// because ThreadSanitizer's happens-before model does not track them. The
// racy loads those fences order are already excluded from race detection
// (SeqlockReadCritical), and the writer side is single-threaded under the
// wrapper's writer mutex, so the untracked fences cannot produce false
// negatives here — suppress the diagnostic rather than weaken the protocol.
#if defined(MCCUCKOO_THREAD_SANITIZER) && defined(__GNUC__) && \
    !defined(__clang__)
#define MCCUCKOO_PUSH_IGNORE_WTSAN \
  _Pragma("GCC diagnostic push") _Pragma("GCC diagnostic ignored \"-Wtsan\"")
#define MCCUCKOO_POP_IGNORE_WTSAN _Pragma("GCC diagnostic pop")
#else
#define MCCUCKOO_PUSH_IGNORE_WTSAN
#define MCCUCKOO_POP_IGNORE_WTSAN
#endif

namespace mccuckoo {

/// Outcome of one optimistic lookup attempt (for a batch tile, kHit means
/// every key of the tile was answered). kContended covers every case where
/// the attempt cannot be trusted — a writer was (or became) active in a
/// touched stripe, or no version array is attached — and the caller
/// retries. kNeedsStash is a *validated* probe that missed the buckets but
/// could not rule the stash out: retrying would conclude the same, and the
/// stash's unordered_map must not be traversed racily, so the caller goes
/// straight to its locked path.
enum class OptimisticResult : uint8_t { kHit, kMiss, kContended, kNeedsStash };

/// Retries after a first contended optimistic attempt before the locked
/// fallback. Contention means a writer is mid-operation; a yield gives it
/// the core (essential when threads are oversubscribed), and after a few
/// losses the lock's queueing is cheaper than spinning on.
inline constexpr int kMaxOptimisticSpins = 3;

/// The concurrent wrappers' optimistic read loop: runs `attempt` (which
/// returns an OptimisticResult) until it is not kContended, at most
/// 1 + kMaxOptimisticSpins times with a yield in between. Each contended
/// attempt counts one `metrics.RecordOptimisticRetry()`, an exhausted loop
/// one `RecordOptimisticFallback()`. Returns the last result: kHit / kMiss
/// answer the read; kNeedsStash and kContended send the caller to its
/// locked path.
template <typename Metrics, typename Attempt>
OptimisticResult RetryOptimistic(Metrics& metrics, Attempt&& attempt) {
  for (int spin = 0;; ++spin) {
    const OptimisticResult r = attempt();
    if (r != OptimisticResult::kContended) return r;
    metrics.RecordOptimisticRetry();
    if (spin == kMaxOptimisticSpins) break;
    std::this_thread::yield();
  }
  metrics.RecordOptimisticFallback();
  return OptimisticResult::kContended;
}

/// Reader policy of the concurrent wrappers: take the shared lock per read
/// (the paper's baseline design) or attempt seqlock-validated lock-free
/// reads first.
enum class ReadMode : uint8_t { kLocked, kOptimistic };

/// Striped seqlock version array. One writer per *stripe* at a time — either
/// the table-wide writer mutex of the single-writer wrappers, or ownership of
/// the congruent LockStripeArray stripe in the multi-writer wrappers — with
/// any number of concurrent readers. The non-RMW WriteBegin/WriteEnd bumps
/// stay valid under multiple writers precisely because the writer-lock
/// stripes partition buckets identically to these version stripes.
class SeqlockArray {
 public:
  /// Stripe-count cap: 1024 cells = 4 KB of versions, enough granularity
  /// that a writer invalidates ~0.1% of the key space per touched bucket.
  static constexpr size_t kMaxStripes = 1024;

  /// Stripe count for a bucket-count hint: min(next_pow2(buckets), cap).
  /// Public so sibling striped structures (LockStripeArray) can size
  /// themselves congruently — the multi-writer protocol requires the writer
  /// locks and the seqlock versions to partition buckets identically.
  static size_t StripesFor(size_t buckets) {
    const size_t stripes = std::bit_ceil(buckets == 0 ? size_t{1} : buckets);
    return stripes > kMaxStripes ? kMaxStripes : stripes;
  }

  /// Builds an array of min(next_pow2(buckets), kMaxStripes) stripes plus
  /// the auxiliary cell. `buckets` is a sizing hint only — the mask mapping
  /// stays valid for any bucket index.
  explicit SeqlockArray(size_t buckets = 1)
      // Count-construction builds the blocks in place (atomics cannot be
      // moved, so resize() would not compile); the vector is never resized
      // afterwards, and vector moves just steal the pointer.
      : mask_(StripesFor(buckets) - 1),
        blocks_((StripesFor(buckets) + 1 + kCellsPerBlock - 1) /
                kCellsPerBlock) {}

  SeqlockArray(SeqlockArray&&) = default;
  SeqlockArray& operator=(SeqlockArray&&) = default;
  SeqlockArray(const SeqlockArray&) = delete;
  SeqlockArray& operator=(const SeqlockArray&) = delete;

  size_t num_stripes() const { return mask_ + 1; }

  /// Stripe covering bucket index `bucket` (any non-negative index).
  size_t StripeOf(size_t bucket) const { return bucket & mask_; }

  /// The auxiliary stripe: whole-table state outside the bucket array
  /// (stash membership, exclusive maintenance). Readers validate it on
  /// every attempt.
  size_t aux_stripe() const { return mask_ + 1; }

  static bool IsWriting(uint32_t version) { return (version & 1) != 0; }

  /// Reader step 1: record a stripe's version before touching its data.
  uint32_t ReadBegin(size_t stripe) const {
    return Cell(stripe).load(std::memory_order_acquire);
  }

  /// Reader step 2: after the data loads, check that every recorded stripe
  /// is unchanged (and was even to begin with — callers reject odd versions
  /// at ReadBegin). One acquire fence orders all data loads before the
  /// re-reads.
  MCCUCKOO_PUSH_IGNORE_WTSAN
  bool Validate(const size_t* stripes, const uint32_t* versions,
                size_t n) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      if (Cell(stripes[i]).load(std::memory_order_relaxed) != versions[i]) {
        return false;
      }
    }
    return true;
  }

  /// Writer: marks a stripe as mutation-in-flight (even -> odd). The
  /// release fence keeps the odd store ahead of the data stores that
  /// follow. Single-writer: no RMW needed.
  void WriteBegin(size_t stripe) {
    auto& c = Cell(stripe);
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  MCCUCKOO_POP_IGNORE_WTSAN

  /// Writer: publishes a stripe (odd -> even); the release store orders
  /// every prior data store before the new version.
  void WriteEnd(size_t stripe) {
    auto& c = Cell(stripe);
    assert(IsWriting(c.load(std::memory_order_relaxed)));
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  /// Current raw version of a stripe (tests/debugging).
  uint32_t Version(size_t stripe) const {
    return Cell(stripe).load(std::memory_order_relaxed);
  }

  /// Test hook: plants a raw version (e.g. near UINT32_MAX to exercise
  /// wraparound). Must not be used while readers are active.
  void TestSetVersion(size_t stripe, uint32_t version) {
    Cell(stripe).store(version, std::memory_order_relaxed);
  }

 private:
  // Cells live in cache-line-aligned blocks: the array start never
  // straddles a line, and 16 cells share one line (readers touch d + 1
  // scattered cells; per-cell padding would cost 64 KB for no gain with a
  // single writer).
  static constexpr size_t kCellsPerBlock = 16;

  struct alignas(64) CellBlock {
    std::atomic<uint32_t> v[kCellsPerBlock];
    CellBlock() {
      for (auto& c : v) c.store(0, std::memory_order_relaxed);
    }
  };

  std::atomic<uint32_t>& Cell(size_t i) {
    return blocks_[i / kCellsPerBlock].v[i % kCellsPerBlock];
  }
  const std::atomic<uint32_t>& Cell(size_t i) const {
    return blocks_[i / kCellsPerBlock].v[i % kCellsPerBlock];
  }

  size_t mask_ = 0;
  std::vector<CellBlock> blocks_;
};

/// Writer-side open set: the stripes held odd by the operation in flight.
/// One mutation can touch a bucket several times (place, then set its
/// counter) and many buckets (every copy, every chain step); Open() bumps
/// each stripe exactly once and CloseAll() publishes them together at the
/// operation's consistent commit point.
class SeqlockWriterSet {
 public:
  void Open(SeqlockArray& arr, size_t stripe) {
    for (size_t i = 0; i < inline_n_; ++i) {
      if (inline_[i] == stripe) return;
    }
    for (size_t s : spill_) {
      if (s == stripe) return;
    }
    arr.WriteBegin(stripe);
    if (inline_n_ < kInline) {
      inline_[inline_n_++] = stripe;
    } else {
      spill_.push_back(stripe);
    }
  }

  void CloseAll(SeqlockArray& arr) {
    for (size_t i = 0; i < inline_n_; ++i) arr.WriteEnd(inline_[i]);
    for (size_t s : spill_) arr.WriteEnd(s);
    inline_n_ = 0;
    spill_.clear();
  }

  bool empty() const { return inline_n_ == 0 && spill_.empty(); }
  size_t size() const { return inline_n_ + spill_.size(); }

 private:
  // Inline storage keeps the per-operation writer sets of the multi-writer
  // paths (constructed fresh each op) off the heap; long rehash-time window
  // sets spill into the vector, which stays unallocated until then.
  static constexpr size_t kInline = 16;
  size_t inline_[kInline];
  size_t inline_n_ = 0;
  std::vector<size_t> spill_;
};

/// RAII TSan scope for the (intentionally racy, validated-after) data loads
/// of an optimistic read attempt. No-op outside ThreadSanitizer builds.
class SeqlockReadCritical {
 public:
  SeqlockReadCritical() {
#ifdef MCCUCKOO_THREAD_SANITIZER
    AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
#endif
  }
  ~SeqlockReadCritical() {
#ifdef MCCUCKOO_THREAD_SANITIZER
    AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
#endif
  }
  SeqlockReadCritical(const SeqlockReadCritical&) = delete;
  SeqlockReadCritical& operator=(const SeqlockReadCritical&) = delete;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_SEQLOCK_H_
