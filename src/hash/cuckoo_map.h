// Bucketized cuckoo hash map — the Table-1 (Appendix C) baselines.
//
// Two independent hash functions choose between two 8-slot buckets
// (the (2,8)-cuckoo regime whose load threshold ~0.989 supports the
// paper's "99% utilization" configuration); inserts evict via random-walk
// kicks with a small stash as the corner-case net. The probe of a bucket
// is branch-free (packed key compares), standing in for the AVX-optimized
// Stanford-DAWN implementation [7]. The `careful` flag models the
// "commercial" variant: full corner-case validation work per probe and a
// lower target load factor (95% vs 99%).
//
// Value is a template parameter so the 32-bit-value vs 20-byte-record rows
// of Table 1 use the same code. The Record instantiation additionally
// satisfies the index::PointIndex contract (record-span Build, duplicate
// keys keep the first record, Stats) so the LIF synthesizer and the
// conformance suite can enumerate it next to the chained maps.

#ifndef LI_HASH_CUCKOO_MAP_H_
#define LI_HASH_CUCKOO_MAP_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "hash/record.h"
#include "index/point_index.h"
#include "simd/dispatch.h"

namespace li::hash {

struct CuckooMapConfig {
  double load_factor = 0.95;  // table sized at n / load_factor
  bool careful = false;       // "commercial" mode: extra validation work
  uint64_t seed = 0x5bd1e995;
};

template <typename Value>
class CuckooMap {
 public:
  static constexpr size_t kBucketSlots = 8;
  static constexpr int kMaxKicks = 1024;
  static constexpr size_t kMaxStash = 128;

  using Config = CuckooMapConfig;
  using config_type = CuckooMapConfig;

  CuckooMap() = default;

  /// PointIndex-contract Build: key is taken from each record; duplicate
  /// keys keep the first record. Only for the Record instantiation.
  Status Build(std::span<const Record> records, const Config& config)
    requires std::same_as<Value, Record>
  {
    LI_RETURN_IF_ERROR(Prepare(records.size(), config));
    Xorshift128Plus rng(config.seed);
    for (const Record& r : records) {
      if (Find(r.key) != nullptr) continue;  // first record wins
      LI_RETURN_IF_ERROR(Insert(r.key, r, rng));
    }
    return Status::OK();
  }

  Status Build(std::span<const uint64_t> keys, std::span<const Value> values,
               const Config& config) {
    if (keys.size() != values.size()) {
      return Status::InvalidArgument("CuckooMap: |keys| != |values|");
    }
    LI_RETURN_IF_ERROR(Prepare(keys.size(), config));
    Xorshift128Plus rng(config.seed);
    for (size_t i = 0; i < keys.size(); ++i) {
      LI_RETURN_IF_ERROR(Insert(keys[i], values[i], rng));
    }
    return Status::OK();
  }

  /// Returns the value for `key`, or nullptr (including on a never-built
  /// map).
  const Value* Find(uint64_t key) const {
    if (buckets_.empty()) return nullptr;
    size_t b1, b2;
    Buckets(key, &b1, &b2);
    if (const Value* v = Probe(b1, key)) return v;
    if (const Value* v = Probe(b2, key)) return v;
    for (const auto& [k, v] : stash_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Software-pipelined batch probe: per 64-key block, phase 1 computes
  /// both candidate buckets for the whole block and prefetches them,
  /// phase 2 probes — overlapping the (up to two) cache misses of
  /// neighboring keys.
  void FindBatch(std::span<const uint64_t> keys,
                 std::span<const Value*> out) const {
    const size_t n = std::min(keys.size(), out.size());
    if (buckets_.empty()) {
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
      return;
    }
    constexpr size_t kBlock = 64;
    size_t b1[kBlock], b2[kBlock];
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t b = std::min(kBlock, n - base);
      for (size_t k = 0; k < b; ++k) {
        Buckets(keys[base + k], &b1[k], &b2[k]);
        PrefetchRead(&buckets_[b1[k]]);
        PrefetchRead(&buckets_[b2[k]]);
      }
      for (size_t k = 0; k < b; ++k) {
        const uint64_t key = keys[base + k];
        const Value* v = Probe(b1[k], key);
        if (v == nullptr) v = Probe(b2[k], key);
        if (v == nullptr) {
          for (const auto& [sk, sv] : stash_) {
            if (sk == key) {
              v = &sv;
              break;
            }
          }
        }
        out[base + k] = v;
      }
    }
  }

  size_t size() const { return size_; }
  size_t num_records() const { return size_; }
  double utilization() const {
    return static_cast<double>(size_) /
           static_cast<double>(num_buckets_ * kBucketSlots);
  }
  size_t SizeBytes() const {
    return num_buckets_ * sizeof(Bucket) +
           stash_.size() * sizeof(std::pair<uint64_t, Value>);
  }
  size_t stash_size() const { return stash_.size(); }

  index::PointIndexStats Stats() const {
    index::PointIndexStats stats;
    stats.num_slots = num_buckets_ * kBucketSlots;
    size_t occupied = 0;
    for (const Bucket& b : buckets_) {
      occupied += static_cast<size_t>(__builtin_popcount(b.occupied));
    }
    stats.empty_slots = stats.num_slots - occupied;
    stats.overflow = stash_.size();
    // Probe depth per stored key: 1 if it sits in its first-choice
    // bucket, 2 if it was kicked to the alternate (stash entries pay for
    // both buckets first).
    double total = 0.0;
    for (size_t bi = 0; bi < buckets_.size(); ++bi) {
      const Bucket& b = buckets_[bi];
      for (size_t s = 0; s < kBucketSlots; ++s) {
        if (!((b.occupied >> s) & 1)) continue;
        size_t h1, h2;
        Buckets(b.keys[s], &h1, &h2);
        total += (h1 == bi) ? 1.0 : 2.0;
      }
    }
    total += 2.0 * static_cast<double>(stash_.size());
    stats.mean_probe =
        size_ == 0 ? 0.0 : total / static_cast<double>(size_);
    return stats;
  }

 private:
  struct Bucket {
    uint64_t keys[kBucketSlots] = {};
    Value values[kBucketSlots] = {};
    uint16_t occupied = 0;  // bitmask
  };
  static constexpr uint16_t kFullMask =
      static_cast<uint16_t>((1u << kBucketSlots) - 1);

  /// Shared validation + table sizing for both Build overloads.
  Status Prepare(size_t n, const Config& config) {
    if (config.load_factor <= 0.0 || config.load_factor > 0.99) {
      return Status::InvalidArgument("CuckooMap: load_factor in (0, 0.99]");
    }
    config_ = config;
    const size_t want =
        static_cast<size_t>(static_cast<double>(n) / config.load_factor) +
        kBucketSlots;
    num_buckets_ = (want + kBucketSlots - 1) / kBucketSlots;
    if (num_buckets_ < 2) num_buckets_ = 2;
    buckets_.assign(num_buckets_, Bucket{});
    stash_.clear();
    size_ = 0;
    return Status::OK();
  }

  /// Two independent bucket choices; forced distinct so eviction always
  /// makes progress.
  void Buckets(uint64_t key, size_t* b1, size_t* b2) const {
    uint64_t h1 = 0, h2 = 0;
    simd::ScalarCuckooSlots(key, config_.seed, num_buckets_, &h1, &h2);
    *b1 = h1;
    *b2 = h2 == h1 ? (h1 + 1) % num_buckets_ : h2;
  }

  const Value* Probe(size_t bucket, uint64_t key) const {
    const Bucket& b = buckets_[bucket];
    // Branch-free candidate mask over the slots.
    unsigned mask = 0;
    for (size_t i = 0; i < kBucketSlots; ++i) {
      mask |= static_cast<unsigned>(b.keys[i] == key) << i;
    }
    mask &= b.occupied;
    if (config_.careful) {
      // Commercial-grade validation pass: re-verify occupancy and key
      // equality slot by slot (the corner-case handling cost).
      for (size_t i = 0; i < kBucketSlots; ++i) {
        const bool hit = ((b.occupied >> i) & 1) && b.keys[i] == key;
        if (hit != (((mask >> i) & 1u) != 0)) mask = 0;  // never taken
      }
    }
    if (mask == 0) return nullptr;
    const unsigned slot = static_cast<unsigned>(__builtin_ctz(mask));
    return &b.values[slot];
  }

  bool TryPlace(size_t bucket, uint64_t key, const Value& value) {
    Bucket& b = buckets_[bucket];
    if (b.occupied == kFullMask) return false;
    const unsigned slot = static_cast<unsigned>(
        __builtin_ctz(~static_cast<unsigned>(b.occupied) & kFullMask));
    b.keys[slot] = key;
    b.values[slot] = value;
    b.occupied = static_cast<uint16_t>(b.occupied | (1u << slot));
    ++size_;
    return true;
  }

  Status Insert(uint64_t key, Value value, Xorshift128Plus& rng) {
    uint64_t cur_key = key;
    Value cur_val = value;
    size_t b1, b2;
    Buckets(cur_key, &b1, &b2);
    size_t bucket = b1;
    for (int kick = 0; kick < kMaxKicks; ++kick) {
      if (TryPlace(bucket, cur_key, cur_val)) return Status::OK();
      const size_t alt = (bucket == b1) ? b2 : b1;
      if (TryPlace(alt, cur_key, cur_val)) return Status::OK();
      // Evict a random victim from the current bucket and continue with it
      // in *its* alternate bucket.
      Bucket& b = buckets_[bucket];
      const unsigned victim =
          static_cast<unsigned>(rng.NextBounded(kBucketSlots));
      std::swap(cur_key, b.keys[victim]);
      std::swap(cur_val, b.values[victim]);
      Buckets(cur_key, &b1, &b2);
      bucket = (bucket == b1) ? b2 : b1;
    }
    // Kick budget exhausted: stash (the corner-case net).
    stash_.emplace_back(cur_key, cur_val);
    ++size_;
    if (stash_.size() > kMaxStash) {
      return Status::Internal("CuckooMap: stash overflow — table too full");
    }
    return Status::OK();
  }

  Config config_;
  size_t num_buckets_ = 0;
  size_t size_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<std::pair<uint64_t, Value>> stash_;
};

}  // namespace li::hash

#endif  // LI_HASH_CUCKOO_MAP_H_
