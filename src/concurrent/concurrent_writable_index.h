// ConcurrentWritableIndex<Base> — the thread-safe write path over the
// Appendix-D.1 delta architecture, behind the library-wide
// index::ConcurrentWritableRangeIndex contract.
//
// Published state is an immutable *version*:
//
//   State = { base keys + built Base index   (shared with older versions)
//           , frozen delta                   (sorted runs + rank prefix sums)
//           , write log                      (append-only, bounded) }
//
// Readers pin an epoch, load the current version (concurrent/versioned.h)
// with one atomic load, and answer from base + frozen + log-prefix with
// no locks: rank = base.Lookup + frozen.RankAdjustBelow + Σ log nets.
// Each log entry carries its *liveness delta* (net ∈ {-1,0,+1}) computed
// at append time, so any published log prefix yields an exact lower_bound
// rank over the live set as of that prefix — the log-count store is the
// serialization point.
//
// Writers serialize on one mutex (contention is counted, and sharding —
// sharded_index.h — is the documented escape hatch), append to the log,
// and publish the new count with a release store. A full log is *frozen*:
// folded into the sorted delta, republished as a new version, the old one
// retired to the epoch manager.
//
// Merges run on a background worker (concurrent/worker.h) so no caller
// ever pays the merge+retrain latency inline:
//   1. rotate: fold any pending log so the delta to merge is a frozen,
//      immutable snapshot (brief writer lock);
//   2. build: merge base ∪ delta into a fresh key array and train a new
//      Base over it — off to the side, no locks held;
//   3. publish: rebase whatever the delta accumulated *during* the build
//      onto the new base (per-key membership recheck), swap the version
//      in atomically, retire the old one (brief writer lock).
// Readers never block on any phase; they keep serving from whichever
// version they pinned, and the old base is reclaimed once its epoch
// drains. Merge timing reuses the pluggable dynamic::MergePolicy,
// evaluated by writers and executed by the worker.
//
// Single-threaded use degenerates to exact DeltaRangeIndex semantics
// (same oracle conformance suite), which is what lets the LIF synthesizer
// qualify concurrent candidates with the same contract as everything
// else.
//
// Durability (index::DurableIndex; docs/DURABILITY.md): with
// EnableDurability attached, Write appends a CRC-framed record to the
// write-ahead log under the writer mutex *before* the log-entry publish
// — so WAL order, LSN order and acknowledgement order coincide — and
// recovery (OpenSnapshot + RecoverFromWal) replays the tail through the
// same Write path. WriteSnapshot publishes the covered LSN inside its
// captured version and truncates the log behind it.

#ifndef LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
#define LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "concurrent/epoch.h"
#include "concurrent/versioned.h"
#include "concurrent/worker.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/delta_sections.h"
#include "dynamic/merge_policy.h"
#include "index/approx.h"
#include "index/concurrent_writable_index.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "index/writable_range_index.h"
#include "snapshot/snapshot.h"
#include "wal/key_log.h"

namespace li::concurrent {

template <index::RangeIndex Base>
class ConcurrentWritableIndex {
 public:
  using key_type = typename Base::key_type;
  using base_config_type = typename Base::config_type;

  struct Config {
    base_config_type base{};
    dynamic::MergePolicy policy{};
    /// Write-log capacity: how many writes a version absorbs before the
    /// log is folded into the sorted frozen delta. Larger amortizes the
    /// fold better; smaller keeps the per-read log scan shorter.
    size_t log_cap = 1024;
  };
  using config_type = Config;

  ConcurrentWritableIndex() = default;
  ConcurrentWritableIndex(ConcurrentWritableIndex&&) noexcept = default;
  ConcurrentWritableIndex& operator=(ConcurrentWritableIndex&&) noexcept =
      default;

  /// Builds the initial version over `keys` (sorted, strictly increasing;
  /// copied — merges replace the array) and starts the background merge
  /// worker. Not thread-safe against other methods (build-then-share, the
  /// same discipline as every container). On failure the handle reverts
  /// to the never-built state: reads answer empty, writes return false,
  /// Merge fails cleanly — never UB (the library-wide convention).
  Status Build(std::span<const key_type> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  index::Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : index::Approx{};
  }
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }
  bool Contains(const key_type& key) const {
    return impl_ != nullptr && impl_->Contains(key);
  }
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    return impl_ ? impl_->Scan(from, limit) : std::vector<key_type>{};
  }
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  // ---- writes: safe from any thread, serialized internally ----

  bool Insert(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/false);
  }
  bool Erase(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/true);
  }

  // ---- merge control ----

  /// Synchronous merge cycle: folds everything written before the call
  /// into the base. Blocks the caller only; readers stay lock-free.
  Status Merge() {
    return impl_ ? impl_->worker_.Run()
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }
  /// Asynchronous merge trigger; coalesces with a pending request.
  void RequestMerge() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  /// Blocks until no merge is pending or running (the quiesce point).
  void WaitForMerges() {
    if (impl_ != nullptr) impl_->worker_.Wait();
  }
  /// Outcome of the most recent background merge cycle.
  Status last_merge_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  // ---- Durability (index::DurableIndex; docs/DURABILITY.md) ----

  /// WAL support needs a flat key type (records carry the raw key bytes).
  static constexpr bool kDurabilityCapable = wal::KeyLog<key_type>::kCapable;

  /// Attach a fresh write-ahead log at cfg.path; subsequent writes are
  /// log-then-apply. Call after Build (or after a snapshot): earlier
  /// writes are only recoverable through a snapshot containing them.
  Status EnableDurability(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->EnableDurability(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  /// Replay the log past the snapshot's covered LSN through the normal
  /// write path, then resume logging to the same file (torn tail
  /// truncated, missing file started fresh).
  Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->RecoverFromWal(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  bool durable() const { return impl_ != nullptr && impl_->durable(); }

  /// Sticky status of the logging path (an append failure poisons the
  /// log; the in-memory index keeps serving).
  Status wal_status() const {
    return impl_ ? impl_->wal_status() : Status::OK();
  }

  wal::WalStats DurabilityStats() const {
    return impl_ ? impl_->DurabilityStats() : wal::WalStats{};
  }

  /// Flush the group-commit window now.
  Status SyncWal() { return impl_ ? impl_->SyncWal() : Status::OK(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // WriteSnapshot quiesces writers on the writer mutex just long enough
  // to fold the live write log + frozen delta into one sorted entry list
  // (the same fold the freeze path uses) and pin the base via its
  // shared_ptr; serialization then runs outside the lock against the
  // pinned immutable pieces. Readers stay lock-free throughout, and an
  // in-flight background merge publishes before or after the capture,
  // never during (publish takes the same mutex). OpenSnapshot rebuilds a
  // fully writable index: the key array is copied (merges replace it),
  // the base model loads against the copy without retraining, and the
  // background merge worker restarts.

  /// Snapshot support needs a flat key type and a base that can persist
  /// its model against a caller-owned key span (the RMI family).
  static constexpr bool kSnapshotCapable =
      dynamic::kDeltaSnapshotCapable<key_type, Base>;

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if (impl_ == nullptr) {
      return Status::FailedPrecondition("ConcurrentWritableIndex: not built");
    }
    return impl_->WriteSections(writer, prefix);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->LoadSections(reader, prefix);
    if (!st.ok()) impl_.reset();
    return st;
  }

  Status WriteSnapshot(const std::string& path) const {
    LI_RETURN_IF_ERROR(index::WriteSnapshotViaSections(*this, path));
    // The snapshot is published; truncate the log behind the LSN it
    // covers (no-op when durability is off).
    return impl_ ? impl_->TruncateWalAfterPublish() : Status::OK();
  }

  static Result<ConcurrentWritableIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<ConcurrentWritableIndex>(path,
                                                                   opts);
  }

  index::WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : index::WritableIndexStats{};
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }
  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  struct LogEntry {
    key_type key{};
    int8_t net = 0;           // liveness delta of this write: -1 / 0 / +1
    bool tombstone = false;   // Erase vs Insert
    bool live_before = false; // key was live immediately before this write
  };

  /// One immutable published version. Only `log[log_count..)` and
  /// `log_count` itself ever change after publication, and only under the
  /// writer mutex; everything a reader dereferences is behind the
  /// release-store of `log_count` or was published with the version.
  struct State {
    explicit State(size_t cap)
        : log(std::make_unique<LogEntry[]>(cap)), log_cap(cap) {}
    std::shared_ptr<const std::vector<key_type>> base_keys;
    std::shared_ptr<const Base> base;  // spans *base_keys
    dynamic::DeltaBuffer<key_type> frozen;
    std::unique_ptr<LogEntry[]> log;
    size_t log_cap;
    std::atomic<uint32_t> log_count{0};
  };

  struct Impl {
    Status Build(std::span<const key_type> keys, const Config& config) {
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      auto bk = std::make_shared<std::vector<key_type>>(keys.begin(),
                                                        keys.end());
      auto base = std::make_shared<Base>();
      LI_RETURN_IF_ERROR(
          base->Build(std::span<const key_type>(*bk), config_.base));
      auto s = std::make_unique<State>(config_.log_cap);
      s->base_keys = std::move(bk);
      s->base = std::move(base);
      versions_.Install(std::move(s));
      live_count_.store(static_cast<int64_t>(keys.size()),
                        std::memory_order_relaxed);
      worker_.Start([this] { return DoBackgroundMerge(); });
      return Status::OK();
    }

    // ---- read path ----

    size_t Lookup(const key_type& key) const {
      versions_.Stripe().lookups.fetch_add(1, std::memory_order_relaxed);
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return 0;
      return RawLookupIn(*s, s->log_count.load(std::memory_order_acquire),
                         key);
    }

    index::Approx ApproxPos(const key_type& key) const {
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return index::Approx{};
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      const size_t pos = RawLookupIn(*s, n, key);
      return index::Approx::Exact(pos, LiveCountIn(*s, n));
    }

    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const {
      const size_t m = std::min(keys.size(), out.size());
      versions_.Stripe().lookups.fetch_add(m, std::memory_order_relaxed);
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) {
        for (size_t i = 0; i < m; ++i) out[i] = 0;
        return;
      }
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      // Base ranks through the base's native batch path (the RMI software
      // pipeline), then the delta adjustment per key — with an empty
      // delta this runs at base batch throughput.
      index::LookupBatch(*s->base, keys, out);
      if (s->frozen.empty() && n == 0) return;
      const LogEntry* log = s->log.get();
      for (size_t i = 0; i < m; ++i) {
        int64_t adj = s->frozen.RankAdjustBelow(keys[i]);
        for (uint32_t j = 0; j < n; ++j) {
          if (log[j].key < keys[i]) adj += log[j].net;
        }
        out[i] = static_cast<size_t>(static_cast<int64_t>(out[i]) + adj);
      }
    }

    bool Contains(const key_type& key) const {
      auto& st = versions_.Stripe();
      st.lookups.fetch_add(1, std::memory_order_relaxed);
      st.contains.fetch_add(1, std::memory_order_relaxed);
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return false;
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      const LogEntry* log = s->log.get();
      for (uint32_t i = n; i-- > 0;) {  // newest write wins
        if (log[i].key == key) {
          st.hits.fetch_add(1, std::memory_order_relaxed);
          return !log[i].tombstone;
        }
      }
      if (const auto e = s->frozen.Find(key)) {
        st.hits.fetch_add(1, std::memory_order_relaxed);
        return !e->tombstone;
      }
      return BaseContainsIn(*s, key);
    }

    std::vector<key_type> Scan(const key_type& from, size_t limit) const {
      std::vector<key_type> out;
      if (limit == 0) return out;
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return out;
      const uint32_t n = s->log_count.load(std::memory_order_acquire);
      const LogEntry* log = s->log.get();
      // Newest-wins, sorted view of the log entries with key >= from.
      std::vector<std::pair<key_type, uint32_t>> lv;
      lv.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!(log[i].key < from)) lv.emplace_back(log[i].key, i);
      }
      std::sort(lv.begin(), lv.end());
      size_t w = 0;
      for (size_t i = 0; i < lv.size(); ++i) {
        if (i + 1 < lv.size() && lv[i + 1].first == lv[i].first) continue;
        lv[w++] = lv[i];  // last (newest) entry per key survives
      }
      lv.resize(w);
      // Streamed three-way merge — base array vs frozen delta vs log
      // view, newest source shadowing equal keys (log > frozen > base),
      // tombstones cancelling base keys as the frontier passes them.
      // Every delta entry up to the stop point is visited (never skipped
      // on a size heuristic: a run of base-key tombstones contributes no
      // output yet must keep cancelling), and the visit stops as soon as
      // the window fills — O(limit + delta-entries-before-stop) work.
      const std::vector<key_type>& bk = *s->base_keys;
      size_t bi = s->base->Lookup(from);
      size_t li = 0;
      bool done = false;
      auto emit = [&](const key_type& k, bool tombstone) {
        while (bi < bk.size() && bk[bi] < k && out.size() < limit) {
          out.push_back(bk[bi++]);
        }
        if (out.size() >= limit) {
          done = true;
          return;
        }
        if (bi < bk.size() && bk[bi] == k) ++bi;  // shadowed base copy
        if (!tombstone) out.push_back(k);
        done = out.size() >= limit;
      };
      s->frozen.VisitFrom(from, [&](const dynamic::DeltaEntry<key_type>& fe) {
        while (li < lv.size() && lv[li].first < fe.key && !done) {
          const LogEntry& e = log[lv[li].second];
          emit(e.key, e.tombstone);
          ++li;
        }
        if (done) return false;
        if (li < lv.size() && lv[li].first == fe.key) {
          const LogEntry& e = log[lv[li].second];
          emit(e.key, e.tombstone);  // log shadows frozen
          ++li;
        } else {
          emit(fe.key, fe.tombstone);
        }
        return !done;
      });
      while (li < lv.size() && !done) {
        const LogEntry& e = log[lv[li].second];
        emit(e.key, e.tombstone);
        ++li;
      }
      while (bi < bk.size() && out.size() < limit) out.push_back(bk[bi++]);
      return out;
    }

    size_t size() const {
      const int64_t n = live_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      EpochManager::Guard g(versions_.epoch());
      const State* s = versions_.Load();
      if (s == nullptr) return 0;
      return s->base->SizeBytes() + s->frozen.SizeBytes() +
             s->log_cap * sizeof(LogEntry);
    }

    // ---- write path ----

    bool Write(const key_type& key, bool tombstone) {
      const auto lk = versions_.LockForWrite();
      // Log-then-apply: the WAL append happens under the writer mutex
      // before the in-memory log-entry publish, so WAL order == LSN
      // order == acknowledgement order, and a crash after the append
      // but before the publish at worst replays a write the caller was
      // never acked for (safe: replay goes through this same path).
      log_.Append(key, tombstone);
      State* s = versions_.Current();
      uint32_t n = s->log_count.load(std::memory_order_relaxed);
      if (n == s->log_cap) {
        s = FreezeLocked(s, n);
        n = 0;
      }
      const bool live_before = LiveLocked(*s, n, key);
      LogEntry& e = s->log[n];
      e.key = key;
      e.tombstone = tombstone;
      e.live_before = live_before;
      e.net = static_cast<int8_t>((tombstone ? 0 : 1) - (live_before ? 1 : 0));
      s->log_count.store(n + 1, std::memory_order_release);
      live_count_.fetch_add(e.net, std::memory_order_relaxed);
      (tombstone ? erases_ : inserts_).fetch_add(1, std::memory_order_relaxed);
      ++writes_since_merge_;
      const size_t delta_entries = s->frozen.entry_count() + n + 1;
      if (dynamic::ShouldMerge(config_.policy, delta_entries,
                               s->base_keys->size(), writes_since_merge_,
                               ReadsSinceMerge())) {
        worker_.Request();
      }
      // Reclaimed versions are freed as `lk` drops, outside the lock.
      return tombstone ? live_before : !live_before;
    }

    // ---- persistence ----

    Status WriteSections(snapshot::SnapshotWriter& writer,
                         const std::string& prefix) const {
      // Capture a consistent point-in-time version under the writer mutex:
      // writers and merge publishes are excluded for the O(delta) fold
      // only; readers are undisturbed.
      std::shared_ptr<const std::vector<key_type>> keys;
      std::shared_ptr<const Base> base;
      std::vector<dynamic::DeltaEntry<key_type>> folded;
      std::optional<wal::WalSnapshotMeta> wal_meta;
      {
        const auto lk = versions_.Lock();
        const State* s = versions_.Current();
        if (s == nullptr) {
          return Status::FailedPrecondition(
              "ConcurrentWritableIndex: not built");
        }
        const uint32_t n = s->log_count.load(std::memory_order_relaxed);
        // Redundancy drop is legal here regardless of a pending rebase:
        // the snapshot pairs the fold with this *same* captured base.
        folded = FoldedEntries(*s, n, /*drop_redundant=*/true);
        keys = s->base_keys;
        base = s->base;
        // Every record up to the last LSN is reflected in this capture
        // (appends serialize on the same mutex), so the snapshot covers
        // it and truncation behind it is safe after publish.
        wal_meta = log_.CoverForSnapshot();
      }
      // Serialization outside the lock: every captured piece is immutable
      // and shared_ptr-pinned (a concurrent merge may retire the version,
      // not free these).
      return dynamic::WriteDeltaSections(
          writer, prefix,
          dynamic::DeltaSnapshotCfg{config_.policy, config_.log_cap},
          wal_meta, std::span<const key_type>(*keys), *base,
          std::span<const dynamic::DeltaEntry<key_type>>(folded));
    }

    /// Rebuilds a live index from snapshot sections: fresh Impl only
    /// (build-then-share discipline, same as Build).
    Status LoadSections(const snapshot::SnapshotReader& reader,
                        const std::string& prefix) {
      auto base = std::make_shared<Base>();
      dynamic::DeltaSections<key_type> loaded;
      LI_RETURN_IF_ERROR(
          dynamic::ReadDeltaSections(reader, prefix, base.get(), &loaded));
      log_ = wal::KeyLog<key_type>(loaded.covered_lsn);
      config_.policy = loaded.cfg.policy;
      config_.log_cap = loaded.cfg.buffer_cap;
      if constexpr (requires {
                      {
                        base->config()
                      } -> std::convertible_to<base_config_type>;
                    }) {
        config_.base = base->config();
      }
      auto s = std::make_unique<State>(config_.log_cap);
      // Moving the vector keeps its buffer, which the base spans.
      s->base_keys =
          std::make_shared<std::vector<key_type>>(std::move(loaded.keys));
      s->base = std::move(base);
      s->frozen = dynamic::DeltaBuffer<key_type>::FromSortedEntries(
          std::span<const dynamic::DeltaEntry<key_type>>(loaded.delta), 2);
      const int64_t live = static_cast<int64_t>(s->base_keys->size()) +
                           s->frozen.LiveAdjustTotal();
      versions_.Install(std::move(s));
      live_count_.store(live, std::memory_order_relaxed);
      worker_.Start([this] { return DoBackgroundMerge(); });
      return Status::OK();
    }

    // ---- durability ----
    // The log lifecycle lives in wal::KeyLog; this class adds only the
    // locking: every call runs under the writer mutex except the replay,
    // which goes through Write (and so takes the mutex per record).

    Status EnableDurability(const wal::DurabilityConfig& cfg) {
      const auto lk = versions_.Lock();
      return log_.Enable(cfg);
    }

    Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
      return log_.Recover(
          cfg, [this] { return versions_.Lock(); },
          [this](const key_type& k, bool tombstone) { Write(k, tombstone); });
    }

    Status TruncateWalAfterPublish() const {
      // Under the writer mutex no append can race the rotation scan.
      const auto lk = versions_.Lock();
      return log_.TruncateAfterPublish();
    }

    bool durable() const {
      const auto lk = versions_.Lock();
      return log_.attached();
    }

    Status wal_status() const {
      const auto lk = versions_.Lock();
      return log_.status();
    }

    wal::WalStats DurabilityStats() const {
      const auto lk = versions_.Lock();
      return log_.Stats();
    }

    Status SyncWal() {
      const auto lk = versions_.Lock();
      return log_.Sync();
    }

    // ---- stats ----

    index::WritableIndexStats Stats() const {
      return FillStats<index::WritableIndexStats>();
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats s =
          FillStats<index::ConcurrentIndexStats>();
      s.freezes = freezes_.load(std::memory_order_relaxed);
      s.background_merges = s.merges;
      versions_.VersionCountsInto(s);
      {
        EpochManager::Guard g(versions_.epoch());
        const State* st = versions_.Load();
        s.log_entries =
            st ? st->log_count.load(std::memory_order_acquire) : 0;
      }
      s.shards = 1;
      return s;
    }

    // ---- internals ----

    uint64_t ReadsSinceMerge() const {
      return versions_.ReadTotal() -
             reads_baseline_.load(std::memory_order_relaxed);
    }

    size_t RawLookupIn(const State& s, uint32_t n,
                       const key_type& key) const {
      int64_t rank = static_cast<int64_t>(s.base->Lookup(key)) +
                     s.frozen.RankAdjustBelow(key);
      const LogEntry* log = s.log.get();
      for (uint32_t i = 0; i < n; ++i) {
        if (log[i].key < key) rank += log[i].net;
      }
      return rank > 0 ? static_cast<size_t>(rank) : 0;
    }

    size_t LiveCountIn(const State& s, uint32_t n) const {
      int64_t c = static_cast<int64_t>(s.base_keys->size()) +
                  s.frozen.LiveAdjustTotal();
      const LogEntry* log = s.log.get();
      for (uint32_t i = 0; i < n; ++i) c += log[i].net;
      return c > 0 ? static_cast<size_t>(c) : 0;
    }

    bool BaseContainsIn(const State& s, const key_type& key) const {
      return index::ContainsViaLookup(
          *s.base, std::span<const key_type>(*s.base_keys), key);
    }

    /// Liveness of `key` under the writer mutex (no guard needed: only
    /// writers swap state, and we hold the writer mutex).
    bool LiveLocked(const State& s, uint32_t n, const key_type& key) const {
      const LogEntry* log = s.log.get();
      for (uint32_t i = n; i-- > 0;) {
        if (log[i].key == key) return !log[i].tombstone;
      }
      if (const auto e = s.frozen.Find(key)) return !e->tombstone;
      return BaseContainsIn(s, key);
    }

    /// Newest-wins fold of `s.frozen` + `s.log[0..n)` into one sorted
    /// entry list, `in_base` still relative to s's base. With
    /// `drop_redundant`, entries whose final state matches the base
    /// (re-insert of a base key, erase of an absent key) are dropped —
    /// valid only when the result is paired with the *same* base.
    std::vector<dynamic::DeltaEntry<key_type>> FoldedEntries(
        const State& s, uint32_t n, bool drop_redundant) const {
      const LogEntry* log = s.log.get();
      std::vector<uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (log[a].key < log[b].key) return true;
        if (log[b].key < log[a].key) return false;
        return a < b;
      });
      std::vector<dynamic::DeltaEntry<key_type>> out;
      out.reserve(s.frozen.entry_count() + n);
      size_t oi = 0;
      auto emit_group = [&](const dynamic::DeltaEntry<key_type>* shadowed) {
        const key_type& k = log[order[oi]].key;
        const LogEntry& first = log[order[oi]];
        size_t gend = oi;
        while (gend < order.size() && log[order[gend]].key == k) ++gend;
        const LogEntry& last = log[order[gend - 1]];
        // in_base: the shadowed frozen entry knows it; otherwise the first
        // log write's prior liveness *is* base membership (no frozen or
        // log predecessor existed).
        const bool in_base =
            shadowed != nullptr ? shadowed->in_base : first.live_before;
        if (!drop_redundant || last.tombstone == in_base) {
          out.push_back(
              dynamic::DeltaEntry<key_type>{k, last.tombstone, in_base});
        }
        oi = gend;
      };
      s.frozen.VisitAll([&](const dynamic::DeltaEntry<key_type>& fe) {
        while (oi < order.size() && log[order[oi]].key < fe.key) {
          emit_group(nullptr);
        }
        if (oi < order.size() && log[order[oi]].key == fe.key) {
          emit_group(&fe);
        } else {
          out.push_back(fe);
        }
        return true;
      });
      while (oi < order.size()) emit_group(nullptr);
      return out;
    }

    /// Folds the full write log into the frozen delta and publishes the
    /// result as a new version (same base). Caller holds the writer
    /// mutex. Returns the published version.
    ///
    /// The redundancy drop is only legal while no merge is in flight:
    /// dropping an entry whose final state matches the *current* base
    /// (e.g. the erase of a key the base does not hold) loses exactly the
    /// tombstone the publish-time rebase would need when that key was
    /// captured in the rotation snapshot and is being baked into the NEW
    /// base right now. With a rebase pending, every entry is kept
    /// (contribution-0 entries are semantically inert) and the publish
    /// step filters against the new base instead.
    State* FreezeLocked(State* s, uint32_t n) {
      auto folded =
          FoldedEntries(*s, n, /*drop_redundant=*/!merge_rebase_pending_);
      auto ns = std::make_unique<State>(config_.log_cap);
      ns->base_keys = s->base_keys;
      ns->base = s->base;
      ns->frozen = dynamic::DeltaBuffer<key_type>::FromSortedEntries(
          std::span<const dynamic::DeltaEntry<key_type>>(folded), 2);
      freezes_.fetch_add(1, std::memory_order_relaxed);
      return versions_.PublishLocked(std::move(ns), s);
    }

    /// One background merge cycle (the worker's body).
    Status DoBackgroundMerge() {
      Timer timer;
      std::shared_ptr<const std::vector<key_type>> old_keys;
      dynamic::DeltaBuffer<key_type> frozen_copy;
      {
        // Phase 1 — rotate: fold any pending log so the delta to merge is
        // an immutable snapshot, then copy it out (O(delta), brief).
        const auto lk = versions_.Lock();
        State* s = versions_.Current();
        const uint32_t n = s->log_count.load(std::memory_order_relaxed);
        if (n > 0) s = FreezeLocked(s, n);
        if (s->frozen.empty()) return Status::OK();
        frozen_copy = s->frozen;
        old_keys = s->base_keys;
        // From here until publish, freezes must keep every fold entry:
        // the snapshot just taken is being baked into the next base, so
        // "redundant vs the old base" no longer implies droppable.
        merge_rebase_pending_ = true;
      }
      // Phase 2 — build off to the side: no locks, readers undisturbed.
      auto merged = std::make_shared<std::vector<key_type>>(
          dynamic::MergeLiveKeys(std::span<const key_type>(*old_keys),
                                 frozen_copy));
      auto new_base = std::make_shared<Base>();
      if (const Status st = new_base->Build(
              std::span<const key_type>(*merged), config_.base);
          !st.ok()) {
        const auto lk = versions_.Lock();
        merge_rebase_pending_ = false;  // old base stays; drops legal again
        return st;
      }
      {
        // Phase 3 — publish: rebase the delta that accumulated during the
        // build onto the new base, swap the version in, retire the old.
        const auto lk = versions_.Lock();
        State* s = versions_.Current();
        const uint32_t n = s->log_count.load(std::memory_order_relaxed);
        auto folded = FoldedEntries(*s, n, /*drop_redundant=*/false);
        std::vector<dynamic::DeltaEntry<key_type>> rebased;
        rebased.reserve(folded.size());
        for (const dynamic::DeltaEntry<key_type>& e : folded) {
          const bool in_nb =
              std::binary_search(merged->begin(), merged->end(), e.key);
          // Keep only entries the new base does not already reflect.
          if (e.tombstone == in_nb) {
            rebased.push_back(
                dynamic::DeltaEntry<key_type>{e.key, e.tombstone, in_nb});
          }
        }
        auto ns = std::make_unique<State>(config_.log_cap);
        ns->base_keys = merged;
        ns->base = std::move(new_base);
        ns->frozen = dynamic::DeltaBuffer<key_type>::FromSortedEntries(
            std::span<const dynamic::DeltaEntry<key_type>>(rebased), 2);
        versions_.PublishLocked(std::move(ns), s);
        merge_rebase_pending_ = false;
        merges_.fetch_add(1, std::memory_order_relaxed);
        merged_keys_.fetch_add(merged->size(), std::memory_order_relaxed);
        writes_since_merge_ = 0;
        reads_baseline_.store(versions_.ReadTotal(),
                              std::memory_order_relaxed);
      }
      const uint64_t ns_elapsed = static_cast<uint64_t>(timer.ElapsedNanos());
      last_merge_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_merge_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return Status::OK();
    }

    template <typename S>
    S FillStats() const {
      S s{};
      versions_.ReadCountsInto(s);
      s.inserts = inserts_.load(std::memory_order_relaxed);
      s.erases = erases_.load(std::memory_order_relaxed);
      s.merges = merges_.load(std::memory_order_relaxed);
      s.merged_keys = merged_keys_.load(std::memory_order_relaxed);
      s.last_merge_ns =
          static_cast<double>(last_merge_ns_.load(std::memory_order_relaxed));
      s.total_merge_ns = static_cast<double>(
          total_merge_ns_.load(std::memory_order_relaxed));
      {
        EpochManager::Guard g(versions_.epoch());
        const State* st = versions_.Load();
        if (st != nullptr) {
          const uint32_t n = st->log_count.load(std::memory_order_acquire);
          s.delta_entries = st->frozen.entry_count() + n;
          s.delta_bytes =
              st->frozen.SizeBytes() + st->log_cap * sizeof(LogEntry);
          s.base_keys = st->base_keys->size();
        }
      }
      return s;
    }

    Config config_{};
    Versioned<State> versions_;
    std::atomic<int64_t> live_count_{0};

    std::atomic<uint64_t> reads_baseline_{0};
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> erases_{0};
    std::atomic<uint64_t> merges_{0};
    std::atomic<uint64_t> merged_keys_{0};
    std::atomic<uint64_t> freezes_{0};
    std::atomic<uint64_t> last_merge_ns_{0};
    std::atomic<uint64_t> total_merge_ns_{0};
    uint64_t writes_since_merge_ = 0;  // writer-mutex holders only
    // True between merge rotation and publish (writer-mutex holders
    // only): freeze folds must not drop entries then — see FreezeLocked.
    bool merge_rebase_pending_ = false;

    // Guarded by the writer mutex; mutable because the const snapshot
    // path stashes the covered LSN and truncates after publish.
    mutable wal::KeyLog<key_type> log_;

    // Last: joined before the members DoBackgroundMerge uses are destroyed.
    Worker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
