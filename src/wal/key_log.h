// KeyLog<Key> — the write-ahead-log lifecycle of a single-log durable
// index (DeltaRangeIndex, ConcurrentWritableIndex): one fixed-size record
// per Insert/Erase carrying the raw key bytes, over one WalWriter.
//
// It owns the whole protocol those classes share (docs/DURABILITY.md):
//
//   Enable   — start a fresh log whose LSNs continue past the covered
//              watermark inherited from the last loaded snapshot;
//   Recover  — replay the records past that watermark through the
//              owner's write path, reject a log that starts after it (a
//              gap), rotate a stale log that ends before it, and resume
//              appending to the same file (a missing file starts fresh);
//   Append   — log-then-apply; a failed append poisons the sticky status;
//   CoverForSnapshot / TruncateAfterPublish — a snapshot records the
//              last acknowledged LSN, and once the snapshot file is
//              published the log is truncated behind it.
//
// Not thread-safe: a concurrent owner calls every method under its
// writer mutex, except Recover, which takes a lock factory so the attach
// check and the install run under the owner's lock while the replay runs
// outside it (the replayed writes take that lock themselves).

#ifndef LI_WAL_KEY_LOG_H_
#define LI_WAL_KEY_LOG_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/status.h"
#include "wal/wal.h"

namespace li::wal {

/// Lock factory for single-threaded owners: its guard guards nothing.
struct Unlocked {
  struct Guard {};
  Guard operator()() const { return {}; }
};

template <typename Key>
class KeyLog {
 public:
  /// Records carry the raw key bytes, so only flat keys can be logged.
  static constexpr bool kCapable = std::is_trivially_copyable_v<Key>;

  KeyLog() = default;
  /// Detached log inheriting a snapshot's covered-LSN watermark.
  explicit KeyLog(uint64_t covered_lsn) : covered_lsn_(covered_lsn) {}

  bool attached() const { return writer_ != nullptr; }
  const Status& status() const { return status_; }
  WalStats Stats() const { return attached() ? writer_->stats() : WalStats{}; }
  Status Sync() { return attached() ? writer_->Sync() : Status::OK(); }

  /// Attach a fresh log at cfg.path (atomically replacing any file
  /// there) whose first record gets LSN covered + 1.
  Status Enable(const DurabilityConfig& cfg) {
    if constexpr (!kCapable) {
      (void)cfg;
      return Status::Unimplemented("durability needs a flat key type");
    } else {
      if (attached()) {
        return Status::FailedPrecondition("durability already enabled");
      }
      auto w = WalWriter::Create(cfg.path, covered_lsn_, sizeof(Key), cfg);
      if (!w.ok()) return w.status();
      Install(w.take());
      return Status::OK();
    }
  }

  /// Replay the log at cfg.path past the covered LSN through
  /// `apply(key, tombstone)`, then resume appending to it. `lock()`
  /// returns the guard the attach check and the install run under; the
  /// replay runs outside it, and nothing it applies is re-logged (the
  /// log is not attached yet). A torn tail is truncated; a missing file
  /// starts a fresh log; a log whose records begin after the watermark
  /// is rejected.
  template <typename Lock, typename Apply>
  Status Recover(const DurabilityConfig& cfg, Lock&& lock, Apply&& apply) {
    if constexpr (!kCapable) {
      (void)cfg;
      return Status::Unimplemented("durability needs a flat key type");
    } else {
      {
        const auto lk = lock();
        if (attached()) {
          return Status::FailedPrecondition("durability already enabled");
        }
      }
      const uint64_t covered = covered_lsn_;
      auto replay = wal::Replay(
          cfg.path,
          [&](WalRecordType type, uint64_t lsn, const void* payload,
              size_t len) -> Status {
            if (len != sizeof(Key)) {
              return Status::InvalidArgument("WAL record size mismatch");
            }
            if (lsn <= covered) return Status::OK();  // snapshot has it
            Key k;
            std::memcpy(&k, payload, sizeof(k));
            apply(k, type == WalRecordType::kErase);
            return Status::OK();
          });
      if (!replay.ok()) {
        if (replay.status().code() == StatusCode::kNotFound) {
          const auto lk = lock();
          return Enable(cfg);  // no log yet: start one
        }
        return replay.status();
      }
      if (replay.value().base_lsn > covered) {
        return Status::InvalidArgument(
            "WAL gap: log starts past the snapshot's covered LSN");
      }
      auto w = WalWriter::Open(cfg.path, cfg, nullptr);
      if (!w.ok()) return w.status();
      const auto lk = lock();
      Install(w.take());
      if (writer_->stats().last_lsn < covered) {
        // Stale log older than the snapshot: rotate so LSNs cannot
        // regress below the watermark.
        LI_RETURN_IF_ERROR(writer_->ResetTo(covered));
      }
      covered_lsn_ = writer_->stats().last_lsn;
      return Status::OK();
    }
  }

  /// Log one write before it is applied; a no-op while detached.
  void Append(const Key& key, bool tombstone) {
    if (!attached()) return;
    auto r = writer_->Append(
        tombstone ? WalRecordType::kErase : WalRecordType::kInsert, &key,
        sizeof(key));
    if (!r.ok()) status_ = r.status();
  }

  /// The watermark a snapshot captured now covers (every record up to
  /// the last acknowledged one), stashed for TruncateAfterPublish. None
  /// while detached: the snapshot then carries no WAL section.
  std::optional<WalSnapshotMeta> CoverForSnapshot() {
    if (!attached()) return std::nullopt;
    WalSnapshotMeta meta;
    meta.covered_lsn = writer_->stats().last_lsn;
    snapshot_covered_lsn_ = meta.covered_lsn;
    return meta;
  }

  /// After the snapshot file is published (fsync + rename), drop the
  /// records it covers. A crash between the two leaves a longer log,
  /// which replay filters by covered LSN.
  Status TruncateAfterPublish() {
    return attached() ? writer_->ResetTo(snapshot_covered_lsn_)
                      : Status::OK();
  }

 private:
  void Install(WalWriter&& w) {
    writer_ = std::make_unique<WalWriter>(std::move(w));
    status_ = Status::OK();
  }

  std::unique_ptr<WalWriter> writer_;
  Status status_{};
  uint64_t covered_lsn_ = 0;           // inherited from the loaded snapshot
  uint64_t snapshot_covered_lsn_ = 0;  // stashed by CoverForSnapshot
};

}  // namespace li::wal

#endif  // LI_WAL_KEY_LOG_H_
