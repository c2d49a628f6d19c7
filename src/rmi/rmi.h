// The Recursive Model Index (§3.2) — the paper's primary contribution.
//
// A two-stage model hierarchy: the top model learns the overall CDF shape
// and routes each key to one of M second-stage models via
// leaf = clamp(M * f0(key) / N); every leaf model (simple linear — "for
// the second stage, simple linear models had the best performance",
// §3.7.1) predicts the absolute position, and per-leaf worst-case error
// bounds turn the prediction into a B-Tree-grade guarantee: the true
// position of any *stored* key lies in [pred + min_err, pred + max_err]
// (§3.4). For absent lookup keys with a non-monotonic model the bound can
// miss, so lookups finish with a boundary fix-up (exponential search) —
// the §3.4 "automatically adjust the search area" escape hatch.
//
// Training is stage-wise per Algorithm 1: fit the top model on all
// (key, position) pairs, route every key by the top prediction, fit each
// leaf on its routed subset, then record min/max/std error per leaf.
//
// The core is generic over the key type: index::KeyTraits<Key> maps each
// key to the real-valued feature the models regress on, so uint64_t,
// double and string keys share this one implementation, and the class
// satisfies the index::RangeIndex contract (ApproxPos / Lookup /
// SizeBytes) that the LIF synthesizer and benches enumerate over.

#ifndef LI_RMI_RMI_H_
#define LI_RMI_RMI_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "index/approx.h"
#include "index/key_traits.h"
#include "index/snapshottable.h"
#include "models/linear.h"
#include "models/model.h"
#include "rmi/trainers.h"
#include "search/search.h"
#include "simd/dispatch.h"
#include "snapshot/arena.h"
#include "snapshot/snapshot.h"

namespace li::rmi {

struct RmiConfig {
  size_t num_leaf_models = 10'000;       // "2nd stage models" in Figure 4
  search::Strategy strategy = search::Strategy::kBiasedBinary;
  TrainOptions train;
  /// Cap on keys used to train the *top* model (§3.6: the top model
  /// converges before a single scan of the data). Leaves always see all
  /// their routed keys. 0 = no cap.
  size_t top_train_sample = 100'000;
};

/// Per-leaf metadata: the linear model plus its error band.
struct Leaf {
  models::LinearModel model;
  int32_t min_err = 0;  // most negative (actual - predicted), floored
  int32_t max_err = 0;  // most positive (actual - predicted), ceiled
  float std_err = 0.0f;
  /// Precomputed σ-scaled sweep sub-window for the vectorized batch path,
  /// as offsets relative to the clamped prediction: sweep
  /// [pos + sweep_lo, pos + sweep_hi) — the 3σ band intersected with the
  /// worst-case window for tight leaves, the full window for wide ones
  /// (where a σ band would pin and escape too often). Computed at Build
  /// so the lookup window stage is two adds and two clamps per key.
  int32_t sweep_lo = 0;
  int32_t sweep_hi = 1;
  /// Explicit zeroed tail padding, so snapshots carry no stale bytes.
  int32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<Leaf>,
              "Leaf is persisted verbatim in snapshot leaf sections");
static_assert(sizeof(Leaf) == sizeof(models::LinearModel) +
                                  5 * sizeof(int32_t) + sizeof(float),
              "Leaf must have no implicit padding");

template <typename Key, typename TopModel>
class RmiIndex {
 public:
  using key_type = Key;
  using config_type = RmiConfig;
  using Traits = index::KeyTraits<Key>;

  /// Linear top models evaluate through the shared scalar spec
  /// (simd::ScalarRoute1), which is what the vector route kernel
  /// replicates; other top models (NN, multivariate) stay on the generic
  /// Predict() path.
  static constexpr bool kTopIsLinear =
      std::is_same_v<TopModel, models::LinearModel>;
  /// The vectorized batch path needs a linear top AND a key type with a
  /// feature-extraction kernel (uint64 / double). String keys and NN tops
  /// use the pipelined scalar batch path.
  static constexpr bool kSimdCapable =
      kTopIsLinear &&
      (std::is_same_v<Key, uint64_t> || std::is_same_v<Key, double>);

  RmiIndex() = default;

  /// Builds over sorted, strictly-increasing `keys` (caller owns the data).
  Status Build(std::span<const Key> keys, const RmiConfig& config) {
    if (config.num_leaf_models == 0) {
      return Status::InvalidArgument("Rmi: need at least one leaf model");
    }
    data_ = keys;
    config_ = config;
    snapshot_keepalive_.reset();
    route_factor_ = 0.0;
    // Retrain-reuse (Appendix D.1 merge cycles): when the leaf table is
    // owned and already the right size, refit in place — keeping the old
    // per-leaf error state around long enough to skip re-deriving the 3σ
    // sweep sub-windows for leaves whose error bounds did not change.
    const bool refit_in_place = !leaves_.mapped() &&
                                leaves_.size() == config.num_leaf_models &&
                                !keys.empty();
    if (!refit_in_place) leaves_.assign(config.num_leaf_models, Leaf{});
    if (keys.empty()) return Status::OK();
    const size_t n = keys.size();
    // Precomputed M/N rescale: one multiply per key on the routing path
    // instead of a multiply plus a ~20-cycle divide.
    route_factor_ = static_cast<double>(config.num_leaf_models) /
                    static_cast<double>(n);

    // ---- Stage 1: train the top model on (key, position) ----
    std::vector<double> xs, ys;
    const size_t cap = config.top_train_sample;
    const size_t top_n = (cap == 0 || cap >= n) ? n : cap;
    xs.reserve(top_n);
    ys.reserve(top_n);
    const double stride = static_cast<double>(n) / static_cast<double>(top_n);
    for (size_t i = 0; i < top_n; ++i) {
      const size_t idx = static_cast<size_t>(i * stride);
      xs.push_back(Traits::ToDouble(keys[idx]));
      ys.push_back(static_cast<double>(idx));
    }
    LI_RETURN_IF_ERROR(TrainModel(&top_, xs, ys, config.train));

    // ---- Route every key to its leaf (Algorithm 1, lines 8-10) ----
    const size_t m = config.num_leaf_models;
    std::vector<uint32_t> leaf_of(n);
    std::vector<uint32_t> counts(m, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t leaf = RouteFromTop(Traits::ToDouble(keys[i]));
      leaf_of[i] = leaf;
      ++counts[leaf];
    }
    std::vector<uint32_t> offsets(m + 1, 0);
    for (size_t j = 0; j < m; ++j) offsets[j + 1] = offsets[j] + counts[j];
    std::vector<uint32_t> routed(n);  // key indices grouped by leaf
    {
      std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < n; ++i) routed[cursor[leaf_of[i]]++] = i;
    }

    // ---- Stage 2: fit each leaf + error bounds (Alg. 1 lines 11-12) ----
    std::vector<double> lx, ly;
    double fill_pos = 0.0;  // last seen position, for empty leaves
    for (size_t j = 0; j < m; ++j) {
      Leaf& leaf = leaves_[j];
      const Leaf prev = leaf;  // pre-refit state, valid iff refit_in_place
      const uint32_t begin = offsets[j], end = offsets[j + 1];
      if (begin == end) {
        // Empty leaf: constant model at the running position so absent
        // keys routed here land near the right region. Reset explicitly —
        // an in-place refit does not get the table-wide wipe.
        leaf = Leaf{};
        leaf.model = models::LinearModel(0.0, fill_pos);
        continue;
      }
      lx.clear();
      ly.clear();
      lx.reserve(end - begin);
      ly.reserve(end - begin);
      for (uint32_t r = begin; r < end; ++r) {
        lx.push_back(Traits::ToDouble(keys[routed[r]]));
        ly.push_back(static_cast<double>(routed[r]));
      }
      LI_RETURN_IF_ERROR(leaf.model.Fit(lx, ly));
      // Error bounds must be computed against the *clamped integer*
      // prediction the lookup path will actually use — i.e. the shared
      // kernel spec, so the bounds cover every dispatch level.
      double min_e = 0.0, max_e = 0.0, sum = 0.0, sum_sq = 0.0;
      bool first = true;
      for (size_t i = 0; i < lx.size(); ++i) {
        const double pred =
            static_cast<double>(PredictPos1(leaf.model, lx[i]));
        const double e = ly[i] - pred;
        if (first) {
          min_e = max_e = e;
          first = false;
        } else {
          min_e = std::min(min_e, e);
          max_e = std::max(max_e, e);
        }
        sum += e;
        sum_sq += e * e;
      }
      const double cnt = static_cast<double>(lx.size());
      const double mean = sum / cnt;
      leaf.min_err = static_cast<int32_t>(std::floor(min_e));
      leaf.max_err = static_cast<int32_t>(std::ceil(max_e));
      leaf.std_err = static_cast<float>(
          std::sqrt(std::max(0.0, sum_sq / cnt - mean * mean)));
      // Sweep windows are a pure function of (min_err, max_err, std_err):
      // when a rebuild lands on identical bounds (the common case for an
      // unchanged key distribution), reuse the previous sub-window
      // instead of re-deriving it.
      if (refit_in_place && prev.min_err == leaf.min_err &&
          prev.max_err == leaf.max_err && prev.std_err == leaf.std_err) {
        leaf.sweep_lo = prev.sweep_lo;
        leaf.sweep_hi = prev.sweep_hi;
        ++sweep_windows_reused_;
        fill_pos = ly.back();
        continue;
      }
      const int64_t two_sigma = 2 * static_cast<int64_t>(leaf.std_err);
      if (two_sigma > static_cast<int64_t>(kMaxSweepHalf)) {
        leaf.sweep_lo = leaf.min_err;  // wide leaf: full worst-case window
        leaf.sweep_hi = leaf.max_err + 1;
      } else {
        // 3σ band (capped): one extra sweep iteration per key is cheaper
        // than the ~5% full-window pin retries a 2σ band incurs.
        const int64_t three_sigma = 3 * static_cast<int64_t>(leaf.std_err);
        const int32_t h = static_cast<int32_t>(std::min<int64_t>(
            std::max<int64_t>(three_sigma, kMinSweepHalf), kMaxSweepHalf));
        leaf.sweep_lo = std::max(leaf.min_err, -h);
        leaf.sweep_hi = std::min(leaf.max_err + 1, h + 1);
        // A heavily biased leaf (error band entirely to one side) can
        // produce an inverted band; keep it minimally non-empty — the pin
        // fix-up recovers exactness either way.
        leaf.sweep_hi = std::max(leaf.sweep_hi, leaf.sweep_lo + 1);
      }
      fill_pos = ly.back();
    }
    return Status::OK();
  }

  /// Retrain-reuse hook for delta-merge cycles (Appendix D.1): retrains
  /// over a new key array with the last Build's configuration. The leaf
  /// table is re-assigned in place, so a steady-state merge loop reuses
  /// its allocation instead of paying a fresh one per retrain.
  Status Rebuild(std::span<const Key> keys) {
    return Build(keys, RmiConfig(config_));  // copy: Build writes config_
  }

  /// The pure model-execution path (what Figure 4's "Model (ns)" column
  /// times): two model evaluations, no search.
  struct Prediction {
    size_t pos = 0;   // clamped position estimate
    size_t lo = 0;    // inclusive search window start
    size_t hi = 0;    // exclusive search window end
    uint32_t leaf = 0;
    float std_err = 0.0f;
  };

  Prediction Predict(const Key& key) const {
    if (data_.empty()) return Prediction{};
    const double x = Traits::ToDouble(key);
    return PredictAtLeaf(RouteFromTop(x), x);
  }

  /// The contract's model-only entry point: prediction plus worst-case
  /// window, as an index::Approx. The raw estimate is clamped into the
  /// window: a leaf whose model under/over-shoots every routed key has a
  /// one-sided error band (e.g. min_err > 0), putting the unclamped
  /// prediction outside its own bound.
  index::Approx ApproxPos(const Key& key) const {
    const Prediction p = Predict(key);
    return index::Approx{std::clamp(p.pos, p.lo, p.hi), p.lo, p.hi};
  }

  /// Full lookup: model + bounded search + boundary fix-up. Returns
  /// lower_bound semantics over the data array for *any* key.
  size_t Lookup(const Key& key) const {
    if (data_.empty()) return 0;
    const Prediction p = Predict(key);
    return search::FindInWindow(config_.strategy, data_.data(), data_.size(),
                                key, index::Approx{p.pos, p.lo, p.hi},
                                static_cast<size_t>(p.std_err) + 1);
  }

  /// Historical name; identical to Lookup.
  size_t LowerBound(const Key& key) const { return Lookup(key); }

  /// Batched lookup: software-pipelines the three phases (route, predict,
  /// search) over a block of keys so the leaf-table and data-array cache
  /// misses of neighboring keys overlap instead of serializing — the
  /// hot-path amortization the single-key path cannot do. When a vector
  /// dispatch level is active (and the Key/TopModel combination is
  /// kernel-capable), the phases run as SIMD kernels over 64-key blocks;
  /// at scalar level this is the pipelined per-key loop below — which is
  /// also the baseline the per-level benchmarks compare against.
  void LookupBatch(std::span<const Key> keys, std::span<size_t> out) const {
    const size_t n = std::min(keys.size(), out.size());
    if (data_.empty()) {
      for (size_t i = 0; i < n; ++i) out[i] = 0;
      return;
    }
    if constexpr (kSimdCapable) {
      if (simd::ActiveLevel() != simd::Level::kScalar) {
        LookupBatchSimd(simd::GetKernels(), keys, out, n);
        return;
      }
    }
    constexpr size_t kBlock = 16;
    double xs[kBlock];
    uint32_t leaf[kBlock];
    Prediction preds[kBlock];
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t b = std::min(kBlock, n - base);
      // Phase 1: top-model routing; prefetch each leaf entry.
      for (size_t k = 0; k < b; ++k) {
        xs[k] = Traits::ToDouble(keys[base + k]);
        leaf[k] = RouteFromTop(xs[k]);
        PrefetchRead(&leaves_[leaf[k]]);
      }
      // Phase 2: leaf predictions; prefetch the predicted data positions.
      for (size_t k = 0; k < b; ++k) {
        preds[k] = PredictAtLeaf(leaf[k], xs[k]);
        PrefetchRead(&data_[preds[k].pos]);
      }
      // Phase 3: bounded search per key.
      for (size_t k = 0; k < b; ++k) {
        out[base + k] = search::FindInWindow(
            config_.strategy, data_.data(), data_.size(), keys[base + k],
            index::Approx{preds[k].pos, preds[k].lo, preds[k].hi},
            static_cast<size_t>(preds[k].std_err) + 1);
      }
    }
  }

  /// Batched model execution only: pos[i] = the clamped position estimate
  /// for keys[i] (no search). This is LearnedHash's batch primitive — it
  /// always runs through the kernel table (the scalar table at scalar
  /// level), which is spec-identical to the single-key Predict path, so
  /// slots computed here match slots computed at Build-insert time.
  void PredictPosBatch(std::span<const Key> keys,
                       std::span<uint64_t> pos) const {
    const size_t n = std::min(keys.size(), pos.size());
    if (data_.empty()) {
      for (size_t i = 0; i < n; ++i) pos[i] = 0;
      return;
    }
    if constexpr (kSimdCapable) {
      const simd::Kernels& kern = simd::GetKernels();
      constexpr size_t kBlock = 64;
      alignas(64) double xs[kBlock];
      alignas(64) uint32_t leaf[kBlock];
      const uint32_t max_leaf = static_cast<uint32_t>(leaves_.size() - 1);
      for (size_t base = 0; base < n; base += kBlock) {
        const size_t b = std::min(kBlock, n - base);
        LoadFeatures(kern, keys.data() + base, b, xs);
        kern.route(xs, b, top_.slope(), top_.intercept(), route_factor_,
                   max_leaf, leaf);
        PredictLeafRuns(kern, xs, leaf, b, pos.data() + base);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        pos[i] = static_cast<uint64_t>(Predict(keys[i]).pos);
      }
    }
  }

  /// True iff `key` is present in the data.
  bool Contains(const Key& key) const {
    const size_t pos = Lookup(key);
    return pos < data_.size() && data_[pos] == key;
  }

  /// Index overhead in bytes (top model + leaf table), excluding the data
  /// array — the paper's Figure-4 size accounting.
  size_t SizeBytes() const {
    return top_.SizeBytes() + leaves_.size() * sizeof(Leaf);
  }

  const TopModel& top() const { return top_; }
  std::span<const Leaf> leaves() const { return leaves_.span(); }
  std::span<const Key> data() const { return data_; }
  const RmiConfig& config() const { return config_; }

  /// Cumulative count of leaves whose 3σ sweep sub-window was carried
  /// over from the previous Build because the error bounds matched
  /// (retrain-reuse diagnostic; see Rebuild).
  size_t sweep_windows_reused() const {
    return static_cast<size_t>(sweep_windows_reused_);
  }
  /// True when the leaf table is a zero-copy view into an open snapshot.
  bool FromSnapshot() const { return leaves_.mapped(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  //
  // Only kernel-capable instantiations (linear top, uint64/double keys)
  // snapshot: those are the flat-layout serving configurations; NN and
  // string variants return Unimplemented. Sections under `prefix`:
  //   meta    routing/search scalars + the top model's coefficients
  //   leaves  the Leaf table verbatim (models + error bands + sweeps)
  //   keys    the sorted key array (omitted when the parent owns it)

  /// Stable type tag used by type-erased snapshots (LIF winners) to pick
  /// the OpenSnapshot instantiation; empty when not snapshottable.
  static constexpr const char* SnapshotKindName() {
    if constexpr (kTopIsLinear && std::is_same_v<Key, uint64_t>) {
      return "rmi.linear.u64";
    } else if constexpr (kTopIsLinear && std::is_same_v<Key, double>) {
      return "rmi.linear.f64";
    } else {
      return "";
    }
  }

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix,
                       bool include_keys = true) const {
    if constexpr (!kSimdCapable) {
      return Status::Unimplemented(
          "RmiIndex snapshots require a linear top and uint64/double keys");
    } else {
      SnapshotMeta meta;
      meta.key_kind = KeyKind();
      meta.top_kind = 1;
      meta.num_leaf_models = config_.num_leaf_models;
      meta.top_train_sample = config_.top_train_sample;
      meta.strategy = static_cast<uint32_t>(config_.strategy);
      meta.has_keys = include_keys ? 1u : 0u;
      meta.data_size = data_.size();
      meta.route_factor = route_factor_;
      meta.top_slope = top_.slope();
      meta.top_intercept = top_.intercept();
      LI_RETURN_IF_ERROR(writer.AddPod(prefix + "meta", meta));
      LI_RETURN_IF_ERROR(writer.AddArray(prefix + "leaves", leaves_.span(),
                                         snapshot::SectionKind::kLeaves));
      if (include_keys) {
        LI_RETURN_IF_ERROR(writer.AddArray(prefix + "keys", data_,
                                           snapshot::SectionKind::kKeys));
      }
      return Status::OK();
    }
  }

  /// Loads from sections written with include_keys=true (self-contained)
  /// or =false (model-only; see the data-span overload for the case where
  /// the parent owns the keys). All structural fields are validated so a
  /// corrupt table yields a Status, not UB.
  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    return LoadSectionsImpl(reader, prefix, std::span<const Key>(), false);
  }

  /// Load with the key array supplied by the caller (a parent index that
  /// persisted the keys once for several components).
  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix,
                      std::span<const Key> external_keys) {
    return LoadSectionsImpl(reader, prefix, external_keys, true);
  }

  Status WriteSnapshot(const std::string& path) const {
    return index::WriteSnapshotViaSections(*this, path);
  }

  static Result<RmiIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<RmiIndex>(path, opts);
  }

  /// Worst |error| across leaves — the hybrid-threshold diagnostic.
  int64_t MaxAbsError() const {
    int64_t worst = 0;
    for (const Leaf& l : leaves_) {
      worst = std::max<int64_t>(worst, -int64_t{l.min_err});
      worst = std::max<int64_t>(worst, int64_t{l.max_err});
    }
    return worst;
  }

  /// Mean of per-leaf max absolute error, weighted uniformly.
  double MeanStdError() const {
    if (leaves_.empty()) return 0.0;
    double s = 0.0;
    for (const Leaf& l : leaves_) s += l.std_err;
    return s / static_cast<double>(leaves_.size());
  }

 private:
  /// Fixed 64-byte snapshot metadata record (format.h SectionKind::kMeta).
  struct SnapshotMeta {
    uint32_t key_kind = 0;        // 1 = uint64_t, 2 = double
    uint32_t top_kind = 0;        // 1 = models::LinearModel
    uint64_t num_leaf_models = 0;
    uint64_t top_train_sample = 0;
    uint32_t strategy = 0;        // search::Strategy
    uint32_t has_keys = 0;        // keys section present
    uint64_t data_size = 0;       // key count the model was trained over
    double route_factor = 0.0;
    double top_slope = 0.0;
    double top_intercept = 0.0;
  };
  static_assert(sizeof(SnapshotMeta) == 64 &&
                std::is_trivially_copyable_v<SnapshotMeta>);

  static constexpr uint32_t KeyKind() {
    if constexpr (std::is_same_v<Key, uint64_t>) {
      return 1;
    } else if constexpr (std::is_same_v<Key, double>) {
      return 2;
    } else {
      return 0;
    }
  }

  Status LoadSectionsImpl(const snapshot::SnapshotReader& reader,
                          const std::string& prefix,
                          std::span<const Key> external_keys,
                          bool use_external) {
    if constexpr (!kSimdCapable) {
      (void)reader;
      (void)prefix;
      (void)external_keys;
      (void)use_external;
      return Status::Unimplemented(
          "RmiIndex snapshots require a linear top and uint64/double keys");
    } else {
      SnapshotMeta meta;
      LI_RETURN_IF_ERROR(reader.GetPod(prefix + "meta", &meta));
      if (meta.key_kind != KeyKind() || meta.top_kind != 1) {
        return Status::InvalidArgument(
            "RmiIndex snapshot was written for a different key/top type");
      }
      if (meta.num_leaf_models == 0 ||
          meta.strategy > static_cast<uint32_t>(
                              search::Strategy::kInterpolation)) {
        return Status::InvalidArgument("RmiIndex snapshot meta is corrupt");
      }
      auto leaves = reader.GetArray<Leaf>(prefix + "leaves");
      if (!leaves.ok()) return leaves.status();
      if (leaves.value().size() != meta.num_leaf_models) {
        return Status::InvalidArgument(
            "RmiIndex snapshot leaf table size disagrees with meta");
      }
      if (use_external) {
        if (external_keys.size() != meta.data_size) {
          return Status::InvalidArgument(
              "RmiIndex snapshot external key array has the wrong size");
        }
        data_ = external_keys;
      } else if (meta.has_keys != 0) {
        auto keys = reader.GetArray<Key>(prefix + "keys");
        if (!keys.ok()) return keys.status();
        if (keys.value().size() != meta.data_size) {
          return Status::InvalidArgument(
              "RmiIndex snapshot key section size disagrees with meta");
        }
        data_ = keys.value();  // zero-copy: served out of the mapping
      } else {
        // Model-only load (LearnedHash's CDF model): reconstruct a span
        // with the right *size* but no dereferenceable keys — mirroring
        // the documented dangling-span semantics in hash_fn.h, where only
        // size()/empty() are ever used on this span.
        data_ = std::span<const Key>(
            reinterpret_cast<const Key*>(leaves.value().data()),
            meta.data_size);
      }
      config_.num_leaf_models = meta.num_leaf_models;
      config_.strategy = static_cast<search::Strategy>(meta.strategy);
      config_.top_train_sample = meta.top_train_sample;
      top_ = models::LinearModel(meta.top_slope, meta.top_intercept);
      route_factor_ = meta.route_factor;
      leaves_ = snapshot::FlatVec<Leaf>::View(leaves.value(),
                                              reader.keepalive());
      snapshot_keepalive_ = reader.keepalive();
      return Status::OK();
    }
  }

  uint32_t RouteFromTop(double x) const {
    if constexpr (kTopIsLinear) {
      // The shared kernel spec — what the vector route kernel computes.
      return simd::ScalarRoute1(x, top_.slope(), top_.intercept(),
                                route_factor_,
                                static_cast<uint32_t>(leaves_.size() - 1));
    } else {
      const double scaled = top_.Predict(x) * route_factor_;
      if (!(scaled > 0.0)) return 0;  // also catches NaN
      const double cap = static_cast<double>(leaves_.size() - 1);
      return static_cast<uint32_t>(scaled < cap ? scaled : cap);
    }
  }

  /// Clamped integer position via the kernel spec: round-to-nearest
  /// (truncation would bias half of all predictions one position low,
  /// ~25% extra hash conflicts, §4.2), clamped to [0, size-1].
  size_t PredictPos1(const models::LinearModel& m, double x) const {
    return static_cast<size_t>(simd::ScalarPredict1(
        x, m.slope(), m.intercept(), data_.size() - 1));
  }

  /// The worst-case search window around a clamped prediction.
  index::Approx WindowOf(const Leaf& leaf, size_t pos) const {
    const size_t lo =
        leaf.min_err < 0 && pos < static_cast<size_t>(-leaf.min_err)
            ? 0
            : pos + leaf.min_err;
    const size_t hi =
        std::min(data_.size(), pos + static_cast<size_t>(std::max(
                                         leaf.max_err, int32_t{0})) + 1);
    return index::Approx{pos, std::min(lo, data_.size()), hi};
  }

  Prediction PredictAtLeaf(uint32_t j, double x) const {
    const Leaf& leaf = leaves_[j];
    const index::Approx w = WindowOf(leaf, PredictPos1(leaf.model, x));
    return Prediction{w.pos, w.lo, w.hi, j, leaf.std_err};
  }

  /// Feature extraction for one block (the kernel analogue of
  /// Traits::ToDouble over arithmetic keys).
  void LoadFeatures(const simd::Kernels& kern, const Key* keys, size_t b,
                    double* xs) const {
    if constexpr (std::is_same_v<Key, uint64_t>) {
      kern.u64_to_f64(keys, b, xs);
    } else {
      for (size_t k = 0; k < b; ++k) xs[k] = Traits::ToDouble(keys[k]);
    }
  }

  /// Gather-free leaf predict: keys routed to the same leaf sit in runs
  /// (routing is monotone in the key for monotone tops, and real batches
  /// are often sorted or locally clustered), so detect runs and evaluate
  /// each with one broadcast-coefficient kernel call instead of gathering
  /// per-lane slopes. Short runs (< half a vector) go through the scalar
  /// spec directly — same results, no setup cost.
  void PredictLeafRuns(const simd::Kernels& kern, const double* xs,
                       const uint32_t* leaf, size_t b, uint64_t* pos) const {
    const uint64_t max_pos = data_.size() - 1;
    size_t k = 0;
    while (k < b) {
      size_t e = k + 1;
      while (e < b && leaf[e] == leaf[k]) ++e;
      const models::LinearModel& m = leaves_[leaf[k]].model;
      if (e - k >= 4) {
        kern.predict_run(xs + k, e - k, m.slope(), m.intercept(), max_pos,
                         pos + k);
      } else {
        for (size_t t = k; t < e; ++t) {
          pos[t] = simd::ScalarPredict1(xs[t], m.slope(), m.intercept(),
                                        max_pos);
        }
      }
      k = e;
    }
  }

  /// σ-scaled half-width bounds for the batched last mile. The sweep
  /// sub-window is `pos ± clamp(3σ, kMinSweepHalf, kMaxSweepHalf)`
  /// intersected with the worst-case window, so one branchless
  /// compare-and-accumulate pass (no internal bisection) covers the
  /// typical-error mass while outliers escape through the pin-to-edge
  /// fix-up.
  static constexpr size_t kMinSweepHalf = 8;
  static constexpr size_t kMaxSweepHalf = 31;

  /// The vectorized batch pipeline: 64-key blocks through the kernel
  /// table — feature conversion, top routing (+ leaf prefetch),
  /// run-grouped leaf predict, then the last mile as a single branchless
  /// sweep of a σ-scaled sub-window around each prediction. Sub-window
  /// cache lines for the whole block are prefetched before any sweep
  /// runs, so the misses a per-key binary search would serialize overlap
  /// across keys instead. Any choice of sub-window is lossless: a result
  /// strictly inside it is the exact global lower bound, and a result
  /// pinned to either edge escapes through ExponentialSearch exactly like
  /// the scalar path's §3.4 fix-up — so results stay bit-identical across
  /// dispatch levels.
  void LookupBatchSimd(const simd::Kernels& kern, std::span<const Key> keys,
                       std::span<size_t> out, size_t n) const {
    constexpr size_t kBlock = 64;
    alignas(64) double xs[kBlock];
    alignas(64) uint32_t leaf[kBlock];
    alignas(64) uint64_t pos[kBlock];
    size_t lo[kBlock], hi[kBlock];  // σ-scaled sweep sub-windows
    const Key* data = data_.data();
    const size_t size = data_.size();
    const uint32_t max_leaf = static_cast<uint32_t>(leaves_.size() - 1);
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t b = std::min(kBlock, n - base);
      LoadFeatures(kern, keys.data() + base, b, xs);
      kern.route(xs, b, top_.slope(), top_.intercept(), route_factor_,
                 max_leaf, leaf);
      for (size_t k = 0; k < b; ++k) PrefetchRead(&leaves_[leaf[k]]);
      PredictLeafRuns(kern, xs, leaf, b, pos);
      const int64_t isize = static_cast<int64_t>(size);
      for (size_t k = 0; k < b; ++k) {
        const Leaf& lf = leaves_[leaf[k]];
        // Apply the Build-precomputed σ sub-window offsets (see Leaf):
        // two adds and two clamps per key, all cmovs — σ varies per leaf,
        // so anything branchy here would mispredict constantly. Outliers
        // pin to a sub-window edge and escape through the staged fix-up
        // below.
        const int64_t p = static_cast<int64_t>(pos[k]);
        const int64_t sl = std::clamp<int64_t>(p + lf.sweep_lo, 0, isize);
        const int64_t sh = std::clamp<int64_t>(p + lf.sweep_hi, sl, isize);
        lo[k] = static_cast<size_t>(sl);
        hi[k] = static_cast<size_t>(sh);
        // Prefetch ends + midpoint: the sweep's span for tight keys, the
        // first bisection probe for wide ones. A prefetch of the empty
        // window's degenerate address is harmless (prefetch never faults).
        PrefetchRead(&data[lo[k]]);
        PrefetchRead(&data[lo[k] + (hi[k] - lo[k]) / 2]);
        PrefetchRead(&data[hi[k] - (hi[k] != 0 ? 1 : 0)]);
      }
      size_t res[kBlock];
      if constexpr (std::is_same_v<Key, uint64_t>) {
        kern.lower_bound_u64_multi(data, lo, hi, keys.data() + base, b, res);
      } else {
        kern.lower_bound_f64_multi(data, lo, hi, keys.data() + base, b, res);
      }
      for (size_t k = 0; k < b; ++k) {
        size_t r = res[k];
        if (LI_UNLIKELY((r == lo[k] && lo[k] > 0) ||
                        (r == hi[k] && hi[k] < size))) {
          // Staged escape: a pin at a σ-sub-window edge first retries the
          // full worst-case window; only a pin at the *window* edge takes
          // the global §3.4 exponential fix-up.
          const Key& key = keys[base + k];
          const index::Approx w =
              WindowOf(leaves_[leaf[k]], static_cast<size_t>(pos[k]));
          if (lo[k] != w.lo || hi[k] != w.hi) {
            if constexpr (std::is_same_v<Key, uint64_t>) {
              r = kern.lower_bound_u64(data, w.lo, w.hi, key);
            } else {
              r = kern.lower_bound_f64(data, w.lo, w.hi, key);
            }
          }
          if ((r == w.lo && w.lo > 0) || (r == w.hi && w.hi < size)) {
            r = search::ExponentialSearch(data, size, key, r);
          }
        }
        out[base + k] = r;
      }
    }
  }

  std::span<const Key> data_;
  RmiConfig config_;
  TopModel top_;
  /// Owned when built, a zero-copy mapped view when opened from a
  /// snapshot; the read path is identical either way.
  snapshot::FlatVec<Leaf> leaves_;
  double route_factor_ = 0.0;
  uint64_t sweep_windows_reused_ = 0;
  /// Pins the mmap that data_ (and leaves_) may point into.
  std::shared_ptr<const void> snapshot_keepalive_;
};

/// The paper's evaluated configuration: integer keys (Figure 4/5).
template <typename TopModel>
using Rmi = RmiIndex<uint64_t, TopModel>;

/// The Figure-4 configuration: NN or linear top with linear leaves.
using LinearRmi = Rmi<models::LinearModel>;
using MultivariateRmi = Rmi<models::MultivariateModel>;
using NeuralRmi = Rmi<models::NeuralNet>;

/// Key-generic instantiations: same core, different KeyTraits.
using DoubleRmi = RmiIndex<double, models::LinearModel>;
using PrefixStringRmi = RmiIndex<std::string, models::LinearModel>;

}  // namespace li::rmi

#endif  // LI_RMI_RMI_H_
