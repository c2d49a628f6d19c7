// WriteLog<Entry, KeyOf> — the bounded append-only write log every
// versioned wrapper (ConcurrentWritableIndex, ConcurrentPointIndex,
// RebuildableExistence) keeps inside its published State: the small
// buffer of recent writes over the immutable frozen structure and base
// (Appendix D.1), written once.
//
// One writer at a time (the holder of the Versioned writer mutex)
// appends; readers take a published prefix with one acquire load and
// read it lock-free. Entries below a published count are never written
// again, so the release-store of the count in Append is the
// serialization point: a reader that sees count n sees entries [0, n)
// fully written. A full log is not reused; the wrapper folds it into its
// frozen structure and publishes a fresh version with an empty log.
//
// `KeyOf` projects an entry to its key by value or const reference
// (`KeyOf{}(entry)`); keys compare with `<` and `==`.

#ifndef LI_CONCURRENT_WRITE_LOG_H_
#define LI_CONCURRENT_WRITE_LOG_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace li::concurrent {

template <typename Entry, typename KeyOf>
class WriteLog {
 public:
  using key_type = std::decay_t<std::invoke_result_t<KeyOf, const Entry&>>;

  /// One key's writes in a prefix: its oldest (`first`) and newest
  /// (`last`) entry, as log indices.
  struct KeyGroup {
    key_type key;
    uint32_t first;
    uint32_t last;
  };

  explicit WriteLog(size_t capacity)
      : entries_(std::make_unique<Entry[]>(capacity)), cap_(capacity) {}

  size_t capacity() const { return cap_; }

  // ---- readers ----

  /// The published prefix length: entries [0, n) are fully written.
  uint32_t published() const { return count_.load(std::memory_order_acquire); }

  const Entry& operator[](uint32_t i) const { return entries_[i]; }
  std::span<const Entry> Prefix(uint32_t n) const {
    return {entries_.get(), n};
  }

  /// The newest entry in [0, n) whose key equals `key`, or nullptr.
  template <typename K>
  const Entry* FindNewest(uint32_t n, const K& key) const {
    for (uint32_t i = n; i-- > 0;) {
      if (KeyOf{}(entries_[i]) == key) return &entries_[i];
    }
    return nullptr;
  }

  /// The entries of [0, n) that `keep` accepts, grouped by key in
  /// ascending key order. Log order is write order, so `last` is each
  /// key's newest write and `first` its oldest.
  template <typename Keep>
  std::vector<KeyGroup> KeyGroups(uint32_t n, Keep&& keep) const {
    std::vector<KeyGroup> g;
    g.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (keep(entries_[i])) g.push_back(KeyGroup{KeyOf{}(entries_[i]), i, i});
    }
    std::sort(g.begin(), g.end(), [](const KeyGroup& a, const KeyGroup& b) {
      if (a.key < b.key) return true;
      if (b.key < a.key) return false;
      return a.first < b.first;
    });
    size_t w = 0;
    for (const KeyGroup& x : g) {
      if (w > 0 && g[w - 1].key == x.key) {
        g[w - 1].last = x.first;  // a newer write of the same key
      } else {
        g[w++] = x;
      }
    }
    g.resize(w);
    return g;
  }
  std::vector<KeyGroup> KeyGroups(uint32_t n) const {
    return KeyGroups(n, [](const Entry&) { return true; });
  }

  // ---- the writer (holder of the writer mutex) ----

  /// The entry count; only the writer changes it, so no ordering is needed.
  uint32_t CountLocked() const {
    return count_.load(std::memory_order_relaxed);
  }
  bool FullLocked() const { return CountLocked() == cap_; }

  /// Writes `e` after the last entry, then publishes it. The log must not
  /// be full.
  void Append(Entry e) {
    const uint32_t n = CountLocked();
    assert(n < cap_);
    entries_[n] = std::move(e);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Copies `from`'s entries [0, n) into this log, which no reader can
  /// see yet (it is published with its version).
  void CopyPrefix(const WriteLog& from, uint32_t n) {
    assert(n <= cap_);
    std::copy(from.entries_.get(), from.entries_.get() + n, entries_.get());
    count_.store(n, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Entry[]> entries_;
  size_t cap_;
  std::atomic<uint32_t> count_{0};
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_WRITE_LOG_H_
