// Versioned<State> — the published-version core under the concurrent
// wrappers (ConcurrentWritableIndex, ConcurrentPointIndex,
// RebuildableExistence). Each wrapper keeps only its State layout, its
// read/fold logic and its rebuild step.
//
// One immutable State is published at a time through one atomic pointer.
// Readers bump their read stripe, pin an epoch (concurrent/epoch.h), load
// the pointer once (seq_cst: the pin/publish/scan order the epoch
// protocol rests on) and read the version lock-free. Writers serialize on
// one writer mutex; a holder may publish a replacement: swap it in ->
// retire the old version -> collect every version no reader can still
// reach. The collected versions are destroyed when the WriterLock drops,
// after the unlock, so no writer pays a large free (old key arrays, model
// tables) inside the critical section.
//
// Lock order: writer mutex -> worker mutex (worker.h). Writers request
// background cycles while holding the writer mutex; a worker step takes
// the writer mutex with no worker mutex held.

#ifndef LI_CONCURRENT_VERSIONED_H_
#define LI_CONCURRENT_VERSIONED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "concurrent/epoch.h"
#include "index/concurrent_writable_index.h"

namespace li::concurrent {

template <typename State>
class Versioned {
 public:
  /// Reader counters, 16 stripes. `hits` counts answers a side structure
  /// (delta, overlay, side set) gave before the base.
  struct alignas(64) ReadStripe {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> contains{0};
    std::atomic<uint64_t> hits{0};
  };
  static constexpr size_t kStripes = 16;

  /// The held writer mutex. On release it unlocks, then destroys the
  /// versions its holder's publishes collected.
  class WriterLock {
   public:
    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;
    ~WriterLock() { v_.DrainDeferredFrees(lk_); }

   private:
    friend class Versioned;
    WriterLock(const Versioned& v, bool count_contention)
        : v_(v), lk_(v.write_mu_, std::try_to_lock) {
      if (lk_.owns_lock()) return;
      if (count_contention) {
        v_.writer_contended_.fetch_add(1, std::memory_order_relaxed);
      }
      lk_.lock();
    }

    const Versioned& v_;
    std::unique_lock<std::mutex> lk_;
  };

  Versioned() = default;
  Versioned(const Versioned&) = delete;
  Versioned& operator=(const Versioned&) = delete;
  ~Versioned() {
    delete state_.load(std::memory_order_relaxed);
    EpochManager::Free(deferred_free_);
  }

  // ---- readers ----

  ReadStripe& Stripe() const {
    return stripes_[ThisThreadIndex() % kStripes];
  }
  EpochManager& epoch() const { return epoch_; }
  /// The published version; call under an EpochManager::Guard on epoch().
  const State* Load() const { return state_.load(std::memory_order_seq_cst); }

  // ---- writers ----

  /// For a foreground write: waiting for the mutex counts as contention.
  WriterLock LockForWrite() const { return WriterLock(*this, true); }
  /// For background steps and control paths (not counted).
  WriterLock Lock() const { return WriterLock(*this, false); }

  /// The published version, for writer-mutex holders (only they replace
  /// it, so no pin is needed).
  State* Current() const { return state_.load(std::memory_order_relaxed); }

  /// Installs the first version (Build, snapshot load); not a publish.
  void Install(std::unique_ptr<State> s) {
    state_.store(s.release(), std::memory_order_seq_cst);
  }

  /// Swaps `fresh` in for `old`, the current version, and retires `old`.
  /// Caller holds a WriterLock. Returns the published version.
  State* PublishLocked(std::unique_ptr<State> fresh, State* old) {
    State* s = fresh.release();
    state_.store(s, std::memory_order_seq_cst);
    published_.fetch_add(1, std::memory_order_relaxed);
    epoch_.Retire(old);
    epoch_.ReclaimTo(deferred_free_);
    return s;
  }

  // ---- stats ----

  /// Lookups counted so far, over all stripes.
  uint64_t ReadTotal() const {
    uint64_t t = 0;
    for (const ReadStripe& r : stripes_) {
      t += r.lookups.load(std::memory_order_relaxed);
    }
    return t;
  }

  /// Sets lookups / contains / delta_hits from the stripes.
  void ReadCountsInto(index::WritableIndexStats& s) const {
    s.lookups = s.contains = s.delta_hits = 0;
    for (const ReadStripe& r : stripes_) {
      s.lookups += r.lookups.load(std::memory_order_relaxed);
      s.contains += r.contains.load(std::memory_order_relaxed);
      s.delta_hits += r.hits.load(std::memory_order_relaxed);
    }
  }

  /// Sets writer_contended and the version lifecycle fields.
  void VersionCountsInto(index::ConcurrentIndexStats& s) const {
    s.writer_contended = writer_contended_.load(std::memory_order_relaxed);
    s.states_published = published_.load(std::memory_order_relaxed);
    s.states_retired = epoch_.retired_count();
    s.states_reclaimed = epoch_.reclaimed_count();
    s.epoch_fallback_pins = epoch_.fallback_pins();
  }

 private:
  /// Destroys the versions PublishLocked collected under `lk` (the held
  /// writer mutex), after unlocking it.
  void DrainDeferredFrees(std::unique_lock<std::mutex>& lk) const {
    if (deferred_free_.empty()) return;  // `lk` unlocks as it is destroyed
    std::vector<EpochManager::Retired> batch;
    batch.swap(deferred_free_);
    lk.unlock();
    EpochManager::Free(batch);
  }

  std::atomic<State*> state_{nullptr};
  // Frees every version still retired when the Versioned dies.
  mutable EpochManager epoch_;
  mutable std::mutex write_mu_;
  // Filled by PublishLocked, drained by ~WriterLock.
  mutable std::vector<EpochManager::Retired> deferred_free_;
  mutable std::atomic<uint64_t> writer_contended_{0};
  std::atomic<uint64_t> published_{0};
  mutable ReadStripe stripes_[kStripes];
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_VERSIONED_H_
