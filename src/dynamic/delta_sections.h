// The snapshot codec of a delta-over-base index — DeltaRangeIndex and
// ConcurrentWritableIndex persist the same six sections under their
// prefix (docs/PERSISTENCE.md):
//
//   cfg     DeltaSnapshotCfg (merge policy + write-buffer capacity)
//   wal     wal::WalSnapshotMeta, present only when a log was attached
//   keys    the base key array (kKeys)
//   base/   the base model's own sections, loaded against a span over
//           the reopened key copy (no retraining)
//   dkeys   the folded delta's keys (kDelta)
//   dmeta   one flag byte per delta key: bit 0 tombstone, bit 1 in_base
//
// The key array is *copied* on read rather than mapped: merges replace
// it, so the index stays writable after restart.

#ifndef LI_DYNAMIC_DELTA_SECTIONS_H_
#define LI_DYNAMIC_DELTA_SECTIONS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/merge_policy.h"
#include "index/snapshottable.h"
#include "snapshot/snapshot.h"
#include "wal/wal.h"

namespace li::dynamic {

/// The "<prefix>cfg" section: the merge policy and the write buffer's
/// capacity (DeltaRangeIndex::Config::active_cap,
/// ConcurrentWritableIndex::Config::log_cap). Persisted verbatim.
struct DeltaSnapshotCfg {
  MergePolicy policy{};
  uint64_t buffer_cap = 0;
};
static_assert(std::is_trivially_copyable_v<MergePolicy>,
              "MergePolicy is persisted verbatim in snapshots");

/// Snapshot support needs a flat key type and a base that can persist
/// its model against a caller-owned key span (the RMI family).
template <typename Key, typename Base>
inline constexpr bool kDeltaSnapshotCapable =
    std::is_trivially_copyable_v<Key> && index::DataSpanSnapshottable<Base>;

/// What ReadDeltaSections hands back besides the loaded base model.
template <typename Key>
struct DeltaSections {
  DeltaSnapshotCfg cfg;
  uint64_t covered_lsn = 0;  // 0 when the snapshot carries no WAL section
  std::vector<Key> keys;     // the base spans this buffer
  std::vector<DeltaEntry<Key>> delta;  // ascending, one entry per key
};

template <typename Key, typename Base>
Status WriteDeltaSections(snapshot::SnapshotWriter& writer,
                          const std::string& prefix,
                          const DeltaSnapshotCfg& cfg,
                          const std::optional<wal::WalSnapshotMeta>& wal,
                          std::span<const Key> keys, const Base& base,
                          std::span<const DeltaEntry<Key>> delta) {
  if constexpr (!kDeltaSnapshotCapable<Key, Base>) {
    return Status::Unimplemented(
        "delta index snapshots need a flat key type and a "
        "section-snapshottable base");
  } else {
    LI_RETURN_IF_ERROR(writer.AddPod(prefix + "cfg", cfg));
    if (wal.has_value()) {
      LI_RETURN_IF_ERROR(writer.AddPod(prefix + "wal", *wal));
    }
    LI_RETURN_IF_ERROR(
        writer.AddArray(prefix + "keys", keys, snapshot::SectionKind::kKeys));
    LI_RETURN_IF_ERROR(
        base.WriteSections(writer, prefix + "base/", /*include_keys=*/false));
    std::vector<Key> dkeys;
    std::vector<uint8_t> dmeta;
    dkeys.reserve(delta.size());
    dmeta.reserve(delta.size());
    for (const DeltaEntry<Key>& e : delta) {
      dkeys.push_back(e.key);
      dmeta.push_back(static_cast<uint8_t>((e.tombstone ? 1 : 0) |
                                           (e.in_base ? 2 : 0)));
    }
    LI_RETURN_IF_ERROR(writer.AddArray(prefix + "dkeys",
                                       std::span<const Key>(dkeys),
                                       snapshot::SectionKind::kDelta));
    return writer.AddArray(prefix + "dmeta", std::span<const uint8_t>(dmeta),
                           snapshot::SectionKind::kDelta);
  }
}

/// Reads what WriteDeltaSections wrote and loads `base` against
/// `out->keys` (moving that vector later keeps its buffer, and so the
/// base's span, valid). Mismatched delta arrays and unknown flag bits
/// are InvalidArgument; a buffer capacity below 2 is raised to 2.
template <typename Key, typename Base>
Status ReadDeltaSections(const snapshot::SnapshotReader& reader,
                         const std::string& prefix, Base* base,
                         DeltaSections<Key>* out) {
  if constexpr (!kDeltaSnapshotCapable<Key, Base>) {
    return Status::Unimplemented(
        "delta index snapshots need a flat key type and a "
        "section-snapshottable base");
  } else {
    LI_RETURN_IF_ERROR(reader.GetPod(prefix + "cfg", &out->cfg));
    out->cfg.buffer_cap = std::max<uint64_t>(out->cfg.buffer_cap, 2);
    auto keys = reader.GetArray<Key>(prefix + "keys");
    if (!keys.ok()) return keys.status();
    auto dkeys = reader.GetArray<Key>(prefix + "dkeys");
    if (!dkeys.ok()) return dkeys.status();
    auto dmeta = reader.GetArray<uint8_t>(prefix + "dmeta");
    if (!dmeta.ok()) return dmeta.status();
    if (dkeys.value().size() != dmeta.value().size()) {
      return Status::InvalidArgument(
          "delta index snapshot: delta arrays disagree in size");
    }
    out->delta.clear();
    out->delta.reserve(dkeys.value().size());
    for (size_t i = 0; i < dkeys.value().size(); ++i) {
      const uint8_t m = dmeta.value()[i];
      if ((m & ~uint8_t{3}) != 0) {
        return Status::InvalidArgument(
            "delta index snapshot: delta flags are corrupt");
      }
      out->delta.push_back(
          DeltaEntry<Key>{dkeys.value()[i], (m & 1) != 0, (m & 2) != 0});
    }
    wal::WalSnapshotMeta meta;  // absent in snapshots taken without a log
    const Status wal_st = reader.GetPod(prefix + "wal", &meta);
    if (wal_st.ok()) {
      out->covered_lsn = meta.covered_lsn;
    } else if (wal_st.code() == StatusCode::kNotFound) {
      out->covered_lsn = 0;
    } else {
      return wal_st;
    }
    out->keys.assign(keys.value().begin(), keys.value().end());
    return base->LoadSections(reader, prefix + "base/",
                              std::span<const Key>(out->keys));
  }
}

}  // namespace li::dynamic

#endif  // LI_DYNAMIC_DELTA_SECTIONS_H_
