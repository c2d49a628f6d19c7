// RebuildableExistence<Base> — online-insertable existence filtering over
// any static index::ExistenceIndex (plain Bloom, learned Bloom,
// model-hash), behind the library-wide index::ConcurrentExistenceIndex
// contract.
//
// A static filter cannot admit new keys (a learned Bloom in particular
// must re-calibrate its threshold), so inserts land in an *exact* side
// set layered over the published filter:
//
//   State = { filter                      (covers `corpus`, immutable)
//           , corpus                      (sorted keys the filter was
//                                          built over; the rebuild input)
//           , pending                     (sorted keys mid-fold: handed
//                                          to an in-flight rebuild, still
//                                          answered exactly)
//           , frozen side set             (sorted inserted keys)
//           , write log                   (append-only, bounded) }
//
// MightContain answers log -> frozen -> pending -> filter under an epoch
// pin, lock-free; because every side structure is exact, the §5
// no-false-negative guarantee extends to inserted keys the moment Insert
// returns. Writers serialize on the writer mutex, append to the log, and
// fold a full log into the frozen set as a fresh version — the
// publish/retire protocol of concurrent/versioned.h, shared by every
// concurrent class.
//
// When the side set outgrows `staleness` (side/corpus ratio), a
// background worker (concurrent/worker.h) rebuilds the filter:
//   1. rotate: fold the log, move frozen -> pending, snapshot corpus +
//      pending (brief writer lock);
//   2. build: corpus' = corpus ∪ pending, run the caller-supplied
//      `Rebuilder` over corpus' off to the side — for a learned filter
//      this is where the threshold re-calibrates and the overflow Bloom
//      re-forms;
//   3. publish: new version {filter', corpus', pending = ∅} keeping
//      whatever the side set accumulated during the build; retire the
//      old version. On failure pending folds back into frozen and the
//      old filter keeps serving (exactness is never at risk — only
//      memory growth), surfacing through last_rebuild_status().
//
// The Rebuilder is a plain std::function so the LIF synthesizer can hand
// in closures owning a classifier (the OwnedLearnedBloom pattern);
// PlainBloomRebuilder covers the no-model case.

#ifndef LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
#define LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/status.h"
#include "common/timer.h"
#include "concurrent/epoch.h"
#include "concurrent/versioned.h"
#include "concurrent/worker.h"
#include "index/concurrent_existence_index.h"
#include "index/concurrent_writable_index.h"
#include "index/existence_index.h"

namespace li::concurrent {

template <index::ExistenceIndex Base>
class RebuildableExistence {
 public:
  using base_type = Base;
  /// Builds `*out` over exactly `keys` (sorted, unique). Must leave the
  /// result with no false negatives over `keys`; called off-lock on the
  /// background worker, so it may train models, calibrate thresholds,
  /// allocate freely.
  using Rebuilder =
      std::function<Status(std::span<const std::string> keys, Base* out)>;

  struct Config {
    Rebuilder rebuild{};  // required: Build fails without one
    /// Side-set fraction of the corpus that triggers a background
    /// rebuild; 0 disables the automatic trigger (RequestRebuild still
    /// works).
    double staleness = 0.05;
    /// Floor before the ratio trigger arms (tiny corpora would otherwise
    /// rebuild on every insert).
    size_t min_side_keys = 256;
    /// Write-log capacity per version.
    size_t log_cap = 1024;
  };
  using config_type = Config;

  RebuildableExistence() = default;
  RebuildableExistence(RebuildableExistence&&) noexcept = default;
  RebuildableExistence& operator=(RebuildableExistence&&) noexcept = default;

  /// Builds the initial filter over `keys` (any order, duplicates
  /// dropped) via config.rebuild and starts the background worker. An
  /// empty span is allowed: the filter starts over the empty set. Not
  /// thread-safe against other methods (build-then-share). On failure
  /// the handle reverts to never-built: MightContain false, Insert
  /// dropped.
  Status Build(std::span<const std::string> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  bool MightContain(std::string_view key) const {
    return impl_ != nullptr && impl_->MightContain(key);
  }
  size_t num_keys() const { return impl_ ? impl_->num_keys() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return index::MeasureFprOver(*this, non_keys);
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }

  // ---- writes: safe from any thread, serialized internally ----

  /// Exact-membership insert: true iff the key was not already present
  /// (corpus or side set — exact, not filter-positive). Once this
  /// returns, MightContain(key) is true on every thread, permanently.
  bool Insert(std::string_view key) {
    return impl_ != nullptr && impl_->Insert(key);
  }

  // ---- rebuild control ----

  Status Rebuild() {
    return impl_ ? impl_->worker_.Run()
                 : Status::FailedPrecondition(
                       "RebuildableExistence: not built");
  }
  void RequestRebuild() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  void WaitForRebuilds() {
    if (impl_ != nullptr) impl_->worker_.Wait();
  }
  Status last_rebuild_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  struct State {
    explicit State(size_t cap)
        : log(std::make_unique<std::string[]>(cap)), log_cap(cap) {}
    std::shared_ptr<const Base> filter;  // covers *corpus, no more
    std::shared_ptr<const std::vector<std::string>> corpus;   // sorted
    std::shared_ptr<const std::vector<std::string>> pending;  // sorted
    std::vector<std::string> frozen;                          // sorted
    std::unique_ptr<std::string[]> log;
    size_t log_cap;
    std::atomic<uint32_t> log_count{0};
  };

  struct Impl {
    Status Build(std::span<const std::string> keys, const Config& config) {
      if (!config.rebuild) {
        return Status::InvalidArgument(
            "RebuildableExistence: config.rebuild is required");
      }
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      auto corpus = std::make_shared<std::vector<std::string>>(keys.begin(),
                                                               keys.end());
      std::sort(corpus->begin(), corpus->end());
      corpus->erase(std::unique(corpus->begin(), corpus->end()),
                    corpus->end());
      auto filter = std::make_shared<Base>();
      if (!corpus->empty()) {
        LI_RETURN_IF_ERROR(config_.rebuild(
            std::span<const std::string>(*corpus), filter.get()));
      }
      key_count_.store(static_cast<int64_t>(corpus->size()),
                       std::memory_order_relaxed);
      auto s = std::make_unique<State>(config_.log_cap);
      s->filter = std::move(filter);
      s->corpus = std::move(corpus);
      versions_.Install(std::move(s));
      worker_.Start([this] { return DoBackgroundRebuild(); });
      return Status::OK();
    }

    // ---- read path ----

    bool MightContain(std::string_view key) const {
      auto& stripe = versions_.Stripe();
      stripe.lookups.fetch_add(1, std::memory_order_relaxed);
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return false;
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      for (uint32_t i = n; i-- > 0;) {
        if (s->log[i] == key) {
          stripe.hits.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
      if (SortedContains(s->frozen, key) ||
          (s->pending != nullptr && SortedContains(*s->pending, key))) {
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return s->filter->MightContain(key);
    }

    size_t num_keys() const {
      const int64_t n = key_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return 0;
      // The filter plus the exact side structures; the corpus is the
      // rebuild input and part of what this structure owns, so it is
      // counted too (stored byte size, computed once per publish).
      size_t bytes = s->filter->SizeBytes() + corpus_bytes_;
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      for (const std::string& k : s->frozen) bytes += k.size();
      for (uint32_t i = 0; i < n; ++i) bytes += s->log[i].size();
      bytes += s->log_cap * sizeof(std::string);
      if (s->pending != nullptr) {
        for (const std::string& k : *s->pending) bytes += k.size();
      }
      return bytes;
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats cs;
      versions_.ReadCountsInto(cs);
      versions_.VersionCountsInto(cs);
      cs.contains = cs.lookups;  // every probe is a membership query
      cs.inserts = inserts_.load(std::memory_order_relaxed);
      cs.merges = rebuilds_.load(std::memory_order_relaxed);
      cs.background_merges = cs.merges;
      cs.merged_keys = merged_keys_.load(std::memory_order_relaxed);
      cs.last_merge_ns = static_cast<double>(
          last_rebuild_ns_.load(std::memory_order_relaxed));
      cs.total_merge_ns = static_cast<double>(
          total_rebuild_ns_.load(std::memory_order_relaxed));
      cs.freezes = freezes_.load(std::memory_order_relaxed);
      {
        EpochManager::Guard g(versions_.epoch());
        const State* s = versions_.Load();
        if (s != nullptr) {
          const uint32_t n = s->log_count.load(std::memory_order_acquire);
          cs.log_entries = n;
          cs.delta_entries = s->frozen.size() + n +
                             (s->pending != nullptr ? s->pending->size() : 0);
          cs.base_keys = s->corpus->size();
        }
      }
      cs.shards = 1;
      return cs;
    }

    // ---- write path ----

    bool Insert(std::string_view key) {
      const auto lk = versions_.LockForWrite();
      State* s = versions_.Current();
      uint32_t n = s->log_count.load(std::memory_order_relaxed);
      if (ExactMemberLocked(*s, n, key)) return false;
      if (n == s->log_cap) {
        s = FreezeLocked(s, n);
        n = 0;
      }
      s->log[n] = std::string(key);
      s->log_count.store(n + 1, std::memory_order_release);
      key_count_.fetch_add(1, std::memory_order_relaxed);
      inserts_.fetch_add(1, std::memory_order_relaxed);
      const size_t side = s->frozen.size() + n + 1 +
                          (s->pending != nullptr ? s->pending->size() : 0);
      if (config_.staleness > 0.0 && side >= config_.min_side_keys &&
          static_cast<double>(side) >=
              config_.staleness *
                  static_cast<double>(std::max<size_t>(s->corpus->size(),
                                                       1))) {
        worker_.Request();
      }
      return true;
    }

    // ---- internals ----

    static bool SortedContains(const std::vector<std::string>& v,
                               std::string_view key) {
      const auto it = std::lower_bound(v.begin(), v.end(), key);
      return it != v.end() && *it == key;
    }

    /// Exact membership under the writer mutex: corpus, pending, frozen
    /// and log are all exact sets, so Insert's return value and
    /// num_keys() count distinct keys, never filter positives.
    bool ExactMemberLocked(const State& s, uint32_t n,
                           std::string_view key) const {
      for (uint32_t i = n; i-- > 0;) {
        if (s.log[i] == key) return true;
      }
      if (SortedContains(s.frozen, key)) return true;
      if (s.pending != nullptr && SortedContains(*s.pending, key)) {
        return true;
      }
      return SortedContains(*s.corpus, key);
    }

    /// Folds the full write log into the frozen side set and publishes
    /// the result as a new version (same filter/corpus/pending). Caller
    /// holds the writer mutex. Returns the published version.
    State* FreezeLocked(State* s, uint32_t n) {
      auto ns = std::make_unique<State>(config_.log_cap);
      ns->filter = s->filter;
      ns->corpus = s->corpus;
      ns->pending = s->pending;
      ns->frozen.reserve(s->frozen.size() + n);
      ns->frozen.insert(ns->frozen.end(), s->frozen.begin(),
                        s->frozen.end());
      for (uint32_t i = 0; i < n; ++i) ns->frozen.push_back(s->log[i]);
      std::sort(ns->frozen.begin(), ns->frozen.end());
      freezes_.fetch_add(1, std::memory_order_relaxed);
      return versions_.PublishLocked(std::move(ns), s);
    }

    /// One background rebuild cycle (the worker's body).
    Status DoBackgroundRebuild() {
      Timer timer;
      std::shared_ptr<const std::vector<std::string>> corpus;
      std::shared_ptr<const std::vector<std::string>> pending;
      {
        // Phase 1 — rotate: fold the log, move frozen -> pending so the
        // set to bake in is an immutable snapshot readers keep answering
        // exactly (brief writer lock).
        const auto lk = versions_.Lock();
        State* s = versions_.Current();
        const uint32_t n = s->log_count.load(std::memory_order_relaxed);
        if (n > 0) s = FreezeLocked(s, n);
        if (s->frozen.empty() && s->pending == nullptr) return Status::OK();
        // Copy, never move: `s` stays published until PublishLocked below
        // and readers scan s->frozen lock-free the whole time.
        auto pend = std::make_shared<std::vector<std::string>>(s->frozen);
        if (s->pending != nullptr) {
          // A previous failed cycle left keys pending; fold them in.
          pend->insert(pend->end(), s->pending->begin(), s->pending->end());
          std::sort(pend->begin(), pend->end());
          pend->erase(std::unique(pend->begin(), pend->end()), pend->end());
        }
        auto ns = std::make_unique<State>(config_.log_cap);
        ns->filter = s->filter;
        ns->corpus = s->corpus;
        ns->pending = pend;
        corpus = ns->corpus;
        pending = pend;
        versions_.PublishLocked(std::move(ns), s);
      }
      // Phase 2 — build off to the side: corpus' = corpus ∪ pending,
      // rebuild the filter over it. No locks held; model training and
      // threshold calibration happen here.
      auto merged = std::make_shared<std::vector<std::string>>();
      merged->reserve(corpus->size() + pending->size());
      std::merge(corpus->begin(), corpus->end(), pending->begin(),
                 pending->end(), std::back_inserter(*merged));
      merged->erase(std::unique(merged->begin(), merged->end()),
                    merged->end());
      auto filter = std::make_shared<Base>();
      Status built = Status::OK();
      if (!merged->empty()) {
        built = config_.rebuild(std::span<const std::string>(*merged),
                                filter.get());
      }
      {
        // Phase 3 — publish (or, on failure, fold pending back so the
        // next cycle retries; the old filter keeps serving either way).
        const auto lk = versions_.Lock();
        State* s = versions_.Current();
        auto ns = std::make_unique<State>(config_.log_cap);
        if (built.ok()) {
          ns->filter = std::move(filter);
          ns->corpus = merged;
          ns->pending = nullptr;
          ns->frozen = s->frozen;  // copy: s stays published until swap
        } else {
          ns->filter = s->filter;
          ns->corpus = s->corpus;
          ns->pending = nullptr;
          ns->frozen = s->frozen;
          ns->frozen.insert(ns->frozen.end(), pending->begin(),
                            pending->end());
          std::sort(ns->frozen.begin(), ns->frozen.end());
        }
        // Keep the live log tail: readers of the new version must still
        // see the entries the old version's log holds.
        const uint32_t n = s->log_count.load(std::memory_order_relaxed);
        for (uint32_t i = 0; i < n; ++i) ns->log[i] = s->log[i];
        ns->log_count.store(n, std::memory_order_relaxed);
        if (built.ok()) {
          size_t bytes = 0;
          for (const std::string& k : *merged) bytes += k.size();
          bytes += merged->size() * sizeof(std::string);
          corpus_bytes_ = bytes;
          merged_keys_.fetch_add(merged->size(), std::memory_order_relaxed);
          rebuilds_.fetch_add(1, std::memory_order_relaxed);
        }
        versions_.PublishLocked(std::move(ns), s);
      }
      const uint64_t ns_elapsed =
          static_cast<uint64_t>(timer.ElapsedNanos());
      last_rebuild_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_rebuild_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return built;
    }

    Config config_{};
    Versioned<State> versions_;
    std::atomic<int64_t> key_count_{0};
    // Stored bytes of the current corpus (strings + array), recomputed at
    // each successful publish; read under the epoch guard in SizeBytes.
    // Writer-mutex holders only for writes.
    std::atomic<size_t> corpus_bytes_{0};

    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> rebuilds_{0};
    std::atomic<uint64_t> merged_keys_{0};
    std::atomic<uint64_t> freezes_{0};
    std::atomic<uint64_t> last_rebuild_ns_{0};
    std::atomic<uint64_t> total_rebuild_ns_{0};

    // Last: joined before the members DoBackgroundRebuild uses are
    // destroyed.
    Worker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

/// Rebuilder for the no-model case: a fresh plain Bloom filter sized to
/// the merged corpus at `target_fpr`.
inline RebuildableExistence<bloom::BloomFilter>::Rebuilder
PlainBloomRebuilder(double target_fpr) {
  return [target_fpr](std::span<const std::string> keys,
                      bloom::BloomFilter* out) -> Status {
    LI_RETURN_IF_ERROR(
        out->Init(std::max<size_t>(keys.size(), 1), target_fpr));
    for (const std::string& k : keys) out->Add(std::string_view(k));
    return Status::OK();
  };
}

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
