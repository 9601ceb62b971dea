// A family of d independent bucket-index functions.
//
// Cuckoo hashing needs h_1..h_d : Key -> [0, n). HashFamily derives them
// from one seedable Hasher with d decorrelated per-table seeds, and maps the
// 64-bit hash onto [0, n) with the multiply-shift reduction so n can be any
// size (no power-of-two restriction).

#ifndef MCCUCKOO_HASH_HASH_FAMILY_H_
#define MCCUCKOO_HASH_HASH_FAMILY_H_

#include <array>
#include <cassert>
#include <cstdint>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/hash/hashers.h"

namespace mccuckoo {

/// Maximum number of hash functions supported by the tables. d = 3 suffices
/// for >90% load (paper §III.B); 4 is exposed for sensitivity experiments.
inline constexpr uint32_t kMaxHashes = 4;

/// 8-bit key fingerprint from a raw (pre-range-reduction) 64-bit hash.
/// HashFamily derives it from the hash it already computes for the first
/// bucket index, so tagging costs zero extra hash evaluations. The
/// golden-ratio remix decorrelates the extracted byte from the bucket
/// index (FastRange64 consumes the *high* bits of the same word), so a
/// bucket's occupants still spread over ~256 tag values.
inline uint8_t TagFromHash(uint64_t raw_hash) {
  return static_cast<uint8_t>((raw_hash * 0x9E3779B97F4A7C15ull) >> 56);
}

/// d decorrelated bucket-index functions over one Hasher.
template <typename Key, typename Hasher = BobHasher>
class HashFamily {
 public:
  /// Creates a family of `d` functions onto [0, buckets_per_table), with all
  /// per-table seeds derived from `seed`.
  HashFamily(uint32_t d, uint64_t buckets_per_table, uint64_t seed)
      : d_(d), buckets_per_table_(buckets_per_table) {
    assert(d >= 2 && d <= kMaxHashes);
    assert(buckets_per_table > 0);
    for (uint32_t t = 0; t < kMaxHashes; ++t) {
      seeds_[t] = SplitMix64(seed + 0x517CC1B727220A95ull * (t + 1));
    }
  }

  /// Number of hash functions.
  uint32_t d() const { return d_; }

  /// Buckets per sub-table.
  uint64_t buckets_per_table() const { return buckets_per_table_; }

  /// Bucket index of `key` in sub-table `t` (0-based, t < d).
  uint64_t Bucket(const Key& key, uint32_t t) const {
    assert(t < d_);
    return FastRange64(hasher_(key, seeds_[t]), buckets_per_table_);
  }

  /// All d bucket indices of `key`. Entries past d() are unspecified.
  std::array<uint64_t, kMaxHashes> Buckets(const Key& key) const {
    std::array<uint64_t, kMaxHashes> out{};
    for (uint32_t t = 0; t < d_; ++t) out[t] = Bucket(key, t);
    return out;
  }

  /// `key`'s 8-bit fingerprint (see TagFromHash). Derived from the t = 0
  /// hash, so fused bucket computation gets it for free.
  uint8_t TagOf(const Key& key) const {
    return TagFromHash(hasher_(key, seeds_[0]));
  }

  /// All d bucket indices plus the fingerprint in one pass — the lookup
  /// paths' entry point (reuses the t = 0 hash evaluation for the tag).
  std::array<uint64_t, kMaxHashes> Buckets(const Key& key,
                                           uint8_t* tag) const {
    std::array<uint64_t, kMaxHashes> out{};
    const uint64_t h0 = hasher_(key, seeds_[0]);
    *tag = TagFromHash(h0);
    out[0] = FastRange64(h0, buckets_per_table_);
    for (uint32_t t = 1; t < d_; ++t) {
      out[t] = FastRange64(hasher_(key, seeds_[t]), buckets_per_table_);
    }
    return out;
  }

  /// Batch entry point: all d bucket indices for `n` keys at once, written
  /// to out[0..n). Keeping the n * d hash evaluations in one tight loop is
  /// what lets the batched table paths hash a whole tile before the first
  /// memory touch (software pipelining); values are identical to n calls of
  /// Buckets().
  void BucketsBatch(const Key* keys, size_t n,
                    std::array<uint64_t, kMaxHashes>* out) const {
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t t = 0; t < d_; ++t) {
        out[i][t] = FastRange64(hasher_(keys[i], seeds_[t]),
                                buckets_per_table_);
      }
    }
  }

  /// Fused batch entry point: bucket indices and fingerprints together,
  /// tags[i] = TagOf(keys[i]), indices identical to the untagged overload.
  void BucketsBatch(const Key* keys, size_t n,
                    std::array<uint64_t, kMaxHashes>* out,
                    uint8_t* tags) const {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t h0 = hasher_(keys[i], seeds_[0]);
      tags[i] = TagFromHash(h0);
      out[i][0] = FastRange64(h0, buckets_per_table_);
      for (uint32_t t = 1; t < d_; ++t) {
        out[i][t] = FastRange64(hasher_(keys[i], seeds_[t]),
                                buckets_per_table_);
      }
    }
  }

 private:
  uint32_t d_;
  uint64_t buckets_per_table_;
  std::array<uint64_t, kMaxHashes> seeds_{};
  Hasher hasher_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_HASH_HASH_FAMILY_H_
