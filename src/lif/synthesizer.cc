#include "lif/synthesizer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "bloom/model_hash_bloom.h"
#include "btree/readonly_btree.h"
#include "classifier/ngram_logistic.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/inplace_chained_map.h"
#include "lif/measure.h"
#include "rangefilter/interval_bitmap_filter.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"

namespace li::lif {

namespace {

template <typename TopModel>
Status EvaluateCandidate(std::span<const uint64_t> keys,
                         const SynthesisSpec& spec, const rmi::RmiConfig& rc,
                         const std::string& description,
                         const std::vector<uint64_t>& queries,
                         rmi::Rmi<TopModel>* out, CandidateReport* report) {
  LI_RETURN_IF_ERROR(out->Build(keys, rc));
  report->description = description;
  report->stage2 = rc.num_leaf_models;
  report->size_bytes = out->SizeBytes();
  report->max_abs_err = out->MaxAbsError();
  report->within_budget = report->size_bytes <= spec.size_budget_bytes;
  report->model_ns = MeasureNsPerOp(
      queries, 1, [&](uint64_t q) { return out->Predict(q).pos; });
  report->lookup_ns =
      MeasureNsPerOp(queries, 1, [&](uint64_t q) { return out->LowerBound(q); });
  return Status::OK();
}

}  // namespace

Status SynthesizedIndex::Synthesize(std::span<const uint64_t> keys,
                                    const SynthesisSpec& spec) {
  // A failed call leaves the empty handle, never the previous winner.
  winner_ = {};
  description_.clear();
  reports_.clear();
  if (keys.empty()) {
    return Status::InvalidArgument("Synthesize: empty key set");
  }
  const std::vector<uint64_t> key_vec(keys.begin(), keys.end());
  const std::vector<uint64_t> queries =
      data::SampleKeys(key_vec, spec.eval_queries, spec.seed);

  double best_ns = std::numeric_limits<double>::infinity();
  bool found = false;

  // Candidates are built concretely (Build is config-specific), then
  // type-erased into the uniform contract — the §3.1 "generate different
  // index configurations ... test them automatically" seam.
  auto consider = [&](auto&& idx, const CandidateReport& report) {
    reports_.push_back(report);
    if (!report.within_budget) return;
    if (report.lookup_ns < best_ns) {
      best_ns = report.lookup_ns;
      winner_ = index::AnyRangeIndex(std::move(idx));
      description_ = report.description;
      found = true;
    }
  };

  for (const size_t m : spec.stage2_sizes) {
    rmi::RmiConfig rc;
    rc.num_leaf_models = m;
    rc.strategy = spec.strategy;

    if (spec.try_linear_top) {
      rmi::Rmi<models::LinearModel> idx;
      CandidateReport report;
      LI_RETURN_IF_ERROR(EvaluateCandidate(
          keys, spec, rc, "linear top / " + std::to_string(m) + " leaves",
          queries, &idx, &report));
      consider(std::move(idx), report);
    }
    if (spec.try_multivariate_top) {
      rmi::Rmi<models::MultivariateModel> idx;
      CandidateReport report;
      LI_RETURN_IF_ERROR(EvaluateCandidate(
          keys, spec, rc,
          "multivariate top / " + std::to_string(m) + " leaves", queries,
          &idx, &report));
      consider(std::move(idx), report);
    }
    for (const auto& hidden : spec.nn_hidden) {
      rmi::RmiConfig nn_rc = rc;
      nn_rc.train.nn.hidden = hidden;
      nn_rc.train.nn.epochs = spec.nn_epochs;
      std::string desc = "nn[";
      for (size_t i = 0; i < hidden.size(); ++i) {
        if (i) desc += 'x';
        desc += std::to_string(hidden[i]);
      }
      desc += "] top / " + std::to_string(m) + " leaves";
      rmi::Rmi<models::NeuralNet> idx;
      CandidateReport report;
      LI_RETURN_IF_ERROR(
          EvaluateCandidate(keys, spec, nn_rc, desc, queries, &idx, &report));
      consider(std::move(idx), report);
    }
  }
  if (!found) {
    return Status::NotFound("Synthesize: no candidate fits the size budget");
  }
  return Status::OK();
}

Status SynthesizedIndex::WriteSnapshot(const std::string& path) const {
  const std::string kind = winner_.SnapshotKind();
  if (kind.empty()) {
    return Status::Unimplemented("SynthesizedIndex: winner '" + description_ +
                                 "' has no flat snapshot format");
  }
  snapshot::SnapshotWriter writer;
  LI_RETURN_IF_ERROR(writer.AddSection("lif/kind",
                                       snapshot::SectionKind::kMeta,
                                       kind.data(), kind.size()));
  LI_RETURN_IF_ERROR(writer.AddSection("lif/desc",
                                       snapshot::SectionKind::kMeta,
                                       description_.data(),
                                       description_.size()));
  LI_RETURN_IF_ERROR(winner_.WriteSections(writer, "w/"));
  return writer.WriteFile(path);
}

Result<SynthesizedIndex> SynthesizedIndex::OpenSnapshot(
    const std::string& path, const snapshot::OpenOptions& opts) {
  auto reader = snapshot::SnapshotReader::Open(path, opts);
  if (!reader.ok()) return reader.status();
  auto kind_bytes = reader.value().Get("lif/kind");
  if (!kind_bytes.ok()) return kind_bytes.status();
  auto desc_bytes = reader.value().Get("lif/desc");
  if (!desc_bytes.ok()) return desc_bytes.status();
  const std::string kind(
      reinterpret_cast<const char*>(kind_bytes.value().data()),
      kind_bytes.value().size());
  SynthesizedIndex out;
  out.description_.assign(
      reinterpret_cast<const char*>(desc_bytes.value().data()),
      desc_bytes.value().size());
  // The kind-tag registry: one entry per candidate type with a flat
  // snapshot format. New snapshottable candidates add a case here.
  if (kind == "rmi.linear.u64") {
    rmi::LinearRmi idx;
    LI_RETURN_IF_ERROR(idx.LoadSections(reader.value(), "w/"));
    out.winner_ = index::AnyRangeIndex(std::move(idx));
  } else {
    return Status::Unimplemented("SynthesizedIndex snapshot kind '" + kind +
                                 "' has no registered loader");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Point-index synthesis (§4): {random, learned-CDF} x slot sweep x family.
// ---------------------------------------------------------------------------

Status SynthesizedPointIndex::Synthesize(std::span<const hash::Record> records,
                                         const PointSynthesisSpec& spec) {
  // A failed call leaves the empty handle, never the previous winner.
  winner_ = {};
  description_.clear();
  reports_.clear();
  if (records.empty()) {
    return Status::InvalidArgument("SynthesizePoint: empty record set");
  }
  std::vector<uint64_t> keys;
  keys.reserve(records.size());
  for (const hash::Record& r : records) keys.push_back(r.key);
  const std::vector<uint64_t> queries =
      data::SampleKeys(keys, spec.eval_queries, spec.seed);

  double best_ns = std::numeric_limits<double>::infinity();
  bool found = false;

  auto consider = [&](auto&& map, CandidateReport report) {
    report.within_budget = report.size_bytes <= spec.size_budget_bytes;
    reports_.push_back(report);
    if (!report.within_budget) return;
    if (report.lookup_ns < best_ns) {
      best_ns = report.lookup_ns;
      winner_ = index::AnyPointIndex(std::move(map));
      description_ = report.description;
      found = true;
    }
  };

  // Every map family shares the measurement recipe; the hash-only cost
  // (model_ns) is measured once per hash config below.
  auto measure = [&](const auto& map, CandidateReport* report) {
    report->size_bytes = map.SizeBytes();
    const index::PointIndexStats stats = map.Stats();
    report->stage2 = stats.num_slots;
    report->max_abs_err = static_cast<int64_t>(stats.overflow);
    report->lookup_ns = MeasureNsPerOp(
        queries, 1, [&](uint64_t q) { return map.Find(q) != nullptr; });
  };

  std::vector<hash::HashConfig> hash_configs;
  if (spec.try_random_hash) {
    hash::HashConfig hc;
    hc.kind = hash::HashKind::kRandom;
    hc.seed = spec.seed;
    hash_configs.push_back(hc);
  }
  if (spec.try_learned_hash) {
    hash::HashConfig hc;
    hc.kind = hash::HashKind::kLearnedCdf;
    hc.seed = spec.seed;
    hc.cdf_leaf_models = spec.cdf_leaf_models;
    hash_configs.push_back(hc);
  }

  for (const hash::HashConfig& hc : hash_configs) {
    const bool learned = hc.kind == hash::HashKind::kLearnedCdf;
    const std::string hash_name = learned ? "learned-cdf" : "random";
    // Train the hash once per family (the learned CDF model depends only
    // on the keys); every candidate below copies + retargets it to its
    // own slot count instead of sorting and retraining per grid point.
    hash::PointHash fn;
    LI_RETURN_IF_ERROR(
        hash::BuildRecordHash(records, records.size(), hc, &fn));
    // Hash-only execution cost (the Figure-8 "model execution" column).
    const double hash_ns =
        MeasureNsPerOp(queries, 1, [&](uint64_t q) { return fn(q); });

    if (spec.try_chained) {
      for (const int pct : spec.slot_percents) {
        hash::ChainedHashMapConfig mc;
        mc.num_slots = std::max<uint64_t>(
            1, records.size() * static_cast<uint64_t>(pct) / 100);
        mc.hash = hc;
        hash::ChainedHashMap map;
        if (!map.Build(records, mc, fn).ok()) continue;
        CandidateReport report;
        report.description = "chained / " + hash_name + " / " +
                             std::to_string(pct) + "% slots";
        report.model_ns = hash_ns;
        measure(map, &report);
        consider(std::move(map), report);
      }
    }
    if (spec.try_inplace) {
      hash::InplaceChainedMapConfig mc;
      mc.hash = hc;
      hash::InplaceChainedMap map;
      if (map.Build(records, mc, fn).ok()) {
        CandidateReport report;
        report.description = "inplace-chained / " + hash_name;
        report.model_ns = hash_ns;
        measure(map, &report);
        consider(std::move(map), report);
      }
    }
  }

  if (spec.try_cuckoo) {
    // The cuckoo family hashes internally (two random choices); it
    // contributes the high-utilization baselines of Table 1 in both
    // careful modes.
    struct {
      double load_factor;
      bool careful;
      const char* name;
    } variants[] = {
        {spec.cuckoo_load_factor, false, "cuckoo / avx-style"},
        {std::min(spec.cuckoo_load_factor, 0.95), true,
         "cuckoo / commercial (careful)"},
    };
    for (const auto& v : variants) {
      hash::CuckooMapConfig mc;
      mc.load_factor = v.load_factor;
      mc.careful = v.careful;
      mc.seed = spec.seed | 1;
      hash::CuckooMap<hash::Record> map;
      if (!map.Build(records, mc).ok()) continue;
      CandidateReport report;
      report.description = v.name;
      measure(map, &report);
      consider(std::move(map), report);
    }
  }

  if (!found) {
    return Status::NotFound(
        "SynthesizePoint: no candidate fits the size budget");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Existence-index synthesis (§5): classifier capacity x construction x
// bitmap size, optimizing memory at a fixed target FPR.
// ---------------------------------------------------------------------------

namespace {

/// Classifier-owning wrappers: the erased winner must be self-contained,
/// so the trained model travels with the filter it calibrates.
struct OwnedLearnedBloom {
  std::shared_ptr<classifier::NgramLogistic> model;
  bloom::LearnedBloomFilter<classifier::NgramLogistic> filter;

  bool MightContain(std::string_view key) const {
    return filter.MightContain(key);
  }
  size_t SizeBytes() const { return filter.SizeBytes(); }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return filter.MeasuredFpr(non_keys);
  }
};

struct OwnedModelHashBloom {
  std::shared_ptr<classifier::NgramLogistic> model;
  bloom::ModelHashBloomFilter<classifier::NgramLogistic> filter;

  bool MightContain(std::string_view key) const {
    return filter.MightContain(key);
  }
  size_t SizeBytes() const { return filter.SizeBytes(); }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return filter.MeasuredFpr(non_keys);
  }
};

static_assert(index::ExistenceIndex<OwnedLearnedBloom>);
static_assert(index::ExistenceIndex<OwnedModelHashBloom>);

}  // namespace

Status SynthesizedExistenceIndex::Synthesize(
    std::span<const std::string> keys,
    std::span<const std::string> train_non_keys,
    std::span<const std::string> valid_non_keys,
    std::span<const std::string> eval_non_keys,
    const ExistenceSynthesisSpec& spec) {
  // A failed call leaves the empty handle, never the previous winner.
  winner_ = {};
  description_.clear();
  reports_.clear();
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeExistence: empty key set");
  }
  if (valid_non_keys.empty() || eval_non_keys.empty()) {
    return Status::InvalidArgument(
        "SynthesizeExistence: need validation and eval non-key sets");
  }
  if (spec.target_fpr <= 0.0 || spec.target_fpr >= 1.0) {
    return Status::InvalidArgument("SynthesizeExistence: bad target FPR");
  }
  const std::vector<std::string> probes(eval_non_keys.begin(),
                                        eval_non_keys.end());
  const double fpr_cap = spec.target_fpr * spec.fpr_slack;

  size_t best_bytes = std::numeric_limits<size_t>::max();
  bool found = false;

  // Winner = smallest qualifying candidate: the §5 objective is memory at
  // a fixed FPR; a candidate whose measured FPR blows past the target is
  // not the same index, however small. Qualification uses the FPR on the
  // *validation* split so the eval split stays an unbiased test set
  // (report.fpr); picking by eval FPR would let the test set select the
  // winner.
  auto consider = [&](auto&& filter, CandidateReport report) {
    report.within_budget = report.size_bytes <= spec.size_budget_bytes;
    reports_.push_back(report);
    if (!report.within_budget || report.valid_fpr > fpr_cap) return;
    if (report.size_bytes < best_bytes) {
      best_bytes = report.size_bytes;
      winner_ = index::AnyExistenceIndex(std::move(filter));
      description_ = report.description;
      found = true;
    }
  };

  // Fills the report: eval-split FPR + probe latency for reporting, plus
  // the validation-split FPR consider() qualifies on.
  auto measure = [&](const auto& filter, CandidateReport* report) {
    report->size_bytes = filter.SizeBytes();
    report->fpr = filter.MeasuredFpr(probes);
    report->valid_fpr = filter.MeasuredFpr(valid_non_keys);
    report->lookup_ns = MeasureNsPerOp(probes, 1, [&](const std::string& q) {
      return filter.MightContain(std::string_view(q));
    });
  };

  if (spec.try_plain_bloom) {
    bloom::BloomFilter plain;
    if (plain.Init(keys.size(), spec.target_fpr).ok()) {
      for (const auto& k : keys) plain.Add(std::string_view(k));
      CandidateReport report;
      report.description = "plain bloom";
      measure(plain, &report);
      consider(std::move(plain), report);
    }
  }

  for (const size_t buckets : spec.ngram_buckets) {
    classifier::NgramConfig ncfg;
    ncfg.num_buckets = buckets;
    ncfg.seed = spec.seed;
    auto model = std::make_shared<classifier::NgramLogistic>();
    if (!model->Train(keys, train_non_keys, ncfg).ok()) continue;
    const double model_ns =
        MeasureNsPerOp(probes, 1, [&](const std::string& q) {
          return model->Predict(q) > 0.5;
        });

    if (spec.try_learned) {
      OwnedLearnedBloom cand;
      cand.model = model;
      if (cand.filter
              .Build(cand.model.get(), keys, valid_non_keys, spec.target_fpr)
              .ok()) {
        CandidateReport report;
        report.description =
            "ngram(" + std::to_string(buckets) + ") + overflow bloom";
        report.stage2 = buckets;
        report.model_ns = model_ns;
        measure(cand, &report);
        consider(std::move(cand), report);
      }
    }
    if (spec.try_model_hash) {
      for (const double bpk : spec.bitmap_bits_per_key) {
        const uint64_t m = std::max<uint64_t>(
            1024, static_cast<uint64_t>(
                      bpk * static_cast<double>(keys.size())));
        OwnedModelHashBloom cand;
        cand.model = model;
        if (!cand.filter
                 .Build(cand.model.get(), keys, valid_non_keys,
                        spec.target_fpr, m)
                 .ok()) {
          continue;
        }
        CandidateReport report;
        report.description = "ngram(" + std::to_string(buckets) +
                             ") model-hash m=" + std::to_string(m);
        report.stage2 = buckets;
        report.model_ns = model_ns;
        measure(cand, &report);
        consider(std::move(cand), report);
      }
    }
  }

  if (!found) {
    return Status::NotFound(
        "SynthesizeExistence: no candidate meets the FPR target within "
        "the size budget");
  }
  return Status::OK();
}

Status SynthesizedExistenceIndex::SynthesizeRange(
    std::span<const uint64_t> keys, const RangeFilterSynthesisSpec& spec) {
  // A failed call leaves the empty handle, never the previous winner.
  range_winner_ = {};
  range_description_.clear();
  range_reports_.clear();
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeRange: empty key set");
  }
  if (spec.target_range_fpr <= 0.0 || spec.target_range_fpr >= 1.0) {
    return Status::InvalidArgument("SynthesizeRange: bad target range-FPR");
  }

  std::vector<uint64_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Validation / eval empty-range splits from disjoint seeds, so the
  // qualification gate and the reported FPR never share queries, plus
  // the witness set every candidate must answer true on (zero false
  // negatives is a contract, not a metric).
  rangefilter::EmptyQueryConfig qcfg;
  qcfg.max_width = spec.max_query_width;
  qcfg.correlated_fraction = spec.correlated_fraction;
  qcfg.count = spec.valid_queries;
  const std::vector<index::RangeQuery> valid_queries =
      rangefilter::GenEmptyRanges(sorted, spec.seed * 3 + 1, qcfg);
  qcfg.count = spec.eval_queries;
  const std::vector<index::RangeQuery> eval_queries =
      rangefilter::GenEmptyRanges(sorted, spec.seed * 3 + 2, qcfg);
  const std::vector<index::RangeQuery> witnesses =
      rangefilter::GenWitnessRanges(sorted, spec.seed * 3 + 3,
                                    spec.witness_queries,
                                    spec.max_query_width);
  if (valid_queries.empty() || eval_queries.empty()) {
    return Status::InvalidArgument(
        "SynthesizeRange: key set has no gaps to generate empty ranges "
        "from");
  }

  const double fpr_cap = spec.target_range_fpr * spec.fpr_slack;
  size_t best_bytes = std::numeric_limits<size_t>::max();
  bool found = false;

  // Same shape as the point-probe sweep above: measure fills the report,
  // consider applies the oracle + qualification gates and keeps the
  // smallest qualifying candidate.
  auto consider = [&](auto&& filter,
                      CandidateReport report) -> Status {
    for (const index::RangeQuery& w : witnesses) {
      if (!filter.MightContainRange(w.lo, w.hi)) {
        return Status::Internal("SynthesizeRange oracle: false negative (" +
                                report.description + ")");
      }
    }
    report.size_bytes = filter.SizeBytes();
    report.valid_fpr = filter.MeasuredRangeFpr(valid_queries);
    report.fpr = filter.MeasuredRangeFpr(eval_queries);
    report.lookup_ns =
        MeasureNsPerOp(eval_queries, 1, [&](const index::RangeQuery& q) {
          return filter.MightContainRange(q.lo, q.hi);
        });
    report.within_budget = report.size_bytes <= spec.size_budget_bytes;
    range_reports_.push_back(report);
    if (report.within_budget && report.valid_fpr <= fpr_cap &&
        report.size_bytes < best_bytes) {
      best_bytes = report.size_bytes;
      range_winner_ = index::AnyRangeFilter(std::move(filter));
      range_description_ = report.description;
      found = true;
    }
    return Status::OK();
  };

  for (const double bpk : spec.bits_per_key) {
    if (spec.try_learned) {
      for (const size_t kps : spec.keys_per_segment) {
        rangefilter::LearnedRangeFilterConfig cfg;
        cfg.bits_per_key = bpk;
        cfg.keys_per_segment = kps;
        rangefilter::LearnedRangeFilter f;
        if (!f.Build(sorted, cfg).ok()) continue;
        CandidateReport report;
        report.description = "learned-segmented bpk=" + std::to_string(bpk) +
                             " kps=" + std::to_string(kps);
        report.stage2 = f.num_segments();
        LI_RETURN_IF_ERROR(consider(std::move(f), std::move(report)));
      }
    }
    if (spec.try_interval) {
      rangefilter::IntervalBitmapFilterConfig cfg;
      cfg.bits_per_key = bpk;
      rangefilter::IntervalBitmapFilter f;
      if (!f.Build(sorted, cfg).ok()) continue;
      CandidateReport report;
      report.description = "interval-bitmap bpk=" + std::to_string(bpk);
      report.stage2 = 1;
      LI_RETURN_IF_ERROR(consider(std::move(f), std::move(report)));
    }
  }

  if (!found) {
    return Status::NotFound(
        "SynthesizeRange: no candidate meets the range-FPR target within "
        "the size budget");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Writable synthesis (Appendix D.1): which delta-wrapped base serves a
// mixed insert/lookup workload fastest?
// ---------------------------------------------------------------------------

namespace {

/// Builds a candidate over the base split, drives it through the op
/// stream via the shared harness (one thread: the sequential stream),
/// and fills the report (mixed_ns is the qualification metric;
/// lookup_ns is measured after the stream, delta populated).
template <typename Idx, typename BuildFn>
Status EvaluateWritableCandidate(const ReadWriteWorkload& w, BuildFn&& build,
                                 const std::string& description,
                                 CandidateReport* report) {
  Idx idx;
  LI_RETURN_IF_ERROR(build(std::span<const uint64_t>(w.base), &idx));
  report->description = description;
  report->mixed_ns = RunMixedStreamNs(idx, w, 1);
  report->lookup_ns = MeasureNsPerOp(w.lookups, 1,
                                     [&](uint64_t q) { return idx.Lookup(q); });
  report->size_bytes = idx.SizeBytes();
  return Status::OK();
}

/// Concurrent-candidate counterpart: mixed_ns additionally charges the
/// drain of deferred background work (WaitForRebalances + WaitForMerges
/// inside the timed window, in that order — a split publishes fresh
/// shards whose merges the second call then covers), so a config cannot
/// win by postponing merge or rebalance CPU past the measured stream —
/// single-threaded candidates pay their merges inline inside the same
/// metric. lookup_ns is post-quiesce (delta drained, boundaries
/// settled): the steady-state read latency the background workers are
/// buying, vs the populated-delta lookup_ns of the inline candidates.
template <typename Idx>
void MeasureConcurrentCandidate(Idx& idx, const ReadWriteWorkload& w,
                                size_t threads, CandidateReport* report) {
  Timer timer;
  RunMixedStreamNs(idx, w, threads);
  if constexpr (requires { idx.WaitForRebalances(); }) {
    idx.WaitForRebalances();
  }
  idx.WaitForMerges();
  report->mixed_ns =
      timer.ElapsedNanos() /
      static_cast<double>(std::max<size_t>(w.is_insert.size(), 1));
  report->threads = threads;
  report->lookup_ns = MeasureNsPerOp(
      w.lookups, 1, [&](uint64_t q) { return idx.Lookup(q); });
  report->size_bytes = idx.SizeBytes();
}

}  // namespace

Status SynthesizedWritableIndex::Synthesize(std::span<const uint64_t> keys,
                                            const WritableSynthesisSpec& spec) {
  // A failed call leaves the empty handle, never the previous winner.
  winner_ = {};
  description_.clear();
  reports_.clear();
  if (keys.empty()) {
    return Status::InvalidArgument("SynthesizeWritable: empty key set");
  }
  if (spec.insert_ratio < 0.0 || spec.insert_ratio > 1.0) {
    return Status::InvalidArgument("SynthesizeWritable: bad insert ratio");
  }
  const ReadWriteWorkload w = MakeReadWriteWorkload(
      keys, spec.eval_ops, spec.insert_ratio, spec.eval_ops, spec.seed);

  double best_ns = std::numeric_limits<double>::infinity();
  // The winner is re-built over the *full* key set (the measured instance
  // absorbed the held-out insert stream), then erased.
  std::function<Status()> rebuild_winner;

  auto consider = [&](const CandidateReport& report, auto&& rebuild) {
    reports_.push_back(report);
    if (!report.within_budget) return;
    if (report.mixed_ns < best_ns) {
      best_ns = report.mixed_ns;
      description_ = report.description;
      rebuild_winner = rebuild;
    }
  };

  if (spec.try_delta_rmi) {
    using DeltaRmi = dynamic::DeltaRangeIndex<rmi::LinearRmi>;
    for (const size_t m : spec.stage2_sizes) {
      DeltaRmi::Config cfg;
      cfg.base.num_leaf_models = m;
      cfg.base.strategy = spec.strategy;
      cfg.policy = spec.policy;
      auto build = [&cfg](std::span<const uint64_t> ks, DeltaRmi* out) {
        return out->Build(ks, cfg);
      };
      CandidateReport report;
      report.stage2 = m;
      LI_RETURN_IF_ERROR(EvaluateWritableCandidate<DeltaRmi>(
          w, build,
          "delta[rmi linear / " + std::to_string(m) + " leaves]", &report));
      report.within_budget = report.size_bytes <= spec.size_budget_bytes;
      consider(report, [this, cfg, keys]() {
        DeltaRmi full;
        LI_RETURN_IF_ERROR(full.Build(keys, cfg));
        winner_ = index::AnyWritableRangeIndex(std::move(full));
        return Status::OK();
      });
    }
  }
  if (spec.try_delta_btree) {
    using DeltaBtree = dynamic::DeltaRangeIndex<btree::ReadOnlyBTree>;
    for (const size_t page : spec.btree_pages) {
      DeltaBtree::Config cfg;
      cfg.base.keys_per_page = page;
      cfg.policy = spec.policy;
      auto build = [&cfg](std::span<const uint64_t> ks, DeltaBtree* out) {
        return out->Build(ks, cfg);
      };
      CandidateReport report;
      report.stage2 = page;
      LI_RETURN_IF_ERROR(EvaluateWritableCandidate<DeltaBtree>(
          w, build, "delta[btree / " + std::to_string(page) + " keys/page]",
          &report));
      report.within_budget = report.size_bytes <= spec.size_budget_bytes;
      consider(report, [this, cfg, keys]() {
        DeltaBtree full;
        LI_RETURN_IF_ERROR(full.Build(keys, cfg));
        winner_ = index::AnyWritableRangeIndex(std::move(full));
        return Status::OK();
      });
    }
  }

  // ---- concurrent axis: thread-safe front-ends under a multi-threaded
  // stream (aggregate ns/op, same throughput currency) ----
  if (spec.try_concurrent) {
    using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
    for (const size_t m : spec.stage2_sizes) {
      ConcRmi::Config cfg;
      cfg.base.num_leaf_models = m;
      cfg.base.strategy = spec.strategy;
      cfg.policy = spec.policy;
      cfg.log_cap = spec.log_cap;
      ConcRmi idx;
      LI_RETURN_IF_ERROR(idx.Build(std::span<const uint64_t>(w.base), cfg));
      CandidateReport report;
      report.description = "concurrent[rmi linear / " + std::to_string(m) +
                           " leaves] x" +
                           std::to_string(spec.eval_threads) + "T";
      report.stage2 = m;
      MeasureConcurrentCandidate(idx, w, spec.eval_threads, &report);
      report.within_budget = report.size_bytes <= spec.size_budget_bytes;
      consider(report, [this, cfg, keys]() {
        ConcRmi full;
        LI_RETURN_IF_ERROR(full.Build(keys, cfg));
        winner_ = index::AnyWritableRangeIndex(std::move(full));
        return Status::OK();
      });
    }
  }
  if (spec.try_sharded) {
    using ConcRmi = concurrent::ConcurrentWritableIndex<rmi::LinearRmi>;
    using Sharded = concurrent::ShardedIndex<ConcRmi>;
    const size_t m = spec.stage2_sizes.empty() ? 10'000
                                               : spec.stage2_sizes.front();
    // Sharded candidates qualify under the spec's insert skew (uniform
    // stays on the shared stream), so the rebalance axis is measured on
    // exactly the drift it exists to absorb.
    const bool skewed = spec.insert_skew.kind != InsertSkew::Kind::kUniform;
    const ReadWriteWorkload skewed_w =
        skewed ? MakeSkewedReadWriteWorkload(keys, spec.eval_ops,
                                             spec.insert_ratio, spec.eval_ops,
                                             spec.seed, spec.insert_skew)
               : ReadWriteWorkload{};
    const ReadWriteWorkload& sw = skewed ? skewed_w : w;
    const std::vector<double> factors = spec.shard_imbalance_factors.empty()
                                            ? std::vector<double>{0.0}
                                            : spec.shard_imbalance_factors;
    for (const size_t shards : spec.shard_counts) {
      for (const double factor : factors) {
        Sharded::Config cfg;
        // Leaf budget splits across shards: each shard indexes ~1/shards
        // of the keys, so the total model table stays comparable.
        cfg.inner.base.num_leaf_models =
            std::max<size_t>(64, m / std::max<size_t>(shards, 1));
        cfg.inner.base.strategy = spec.strategy;
        cfg.inner.policy = spec.policy;
        cfg.inner.log_cap = spec.log_cap;
        cfg.num_shards = shards;
        cfg.rebalance.enabled = factor > 0.0;
        if (factor > 0.0) cfg.rebalance.max_imbalance = factor;
        Sharded idx;
        LI_RETURN_IF_ERROR(
            idx.Build(std::span<const uint64_t>(sw.base), cfg));
        CandidateReport report;
        report.description =
            "sharded[" + std::to_string(shards) + " x rmi linear / " +
            std::to_string(cfg.inner.base.num_leaf_models) + " leaves" +
            (factor > 0.0
                 ? " / rebal@" + std::to_string(factor).substr(0, 3)
                 : "") +
            "] x" + std::to_string(spec.eval_threads) + "T";
        report.stage2 = m;
        MeasureConcurrentCandidate(idx, sw, spec.eval_threads, &report);
        report.within_budget = report.size_bytes <= spec.size_budget_bytes;
        consider(report, [this, cfg, keys]() {
          Sharded full;
          LI_RETURN_IF_ERROR(full.Build(keys, cfg));
          winner_ = index::AnyWritableRangeIndex(std::move(full));
          return Status::OK();
        });
      }
    }
  }

  if (!rebuild_winner) {
    return Status::NotFound(
        "SynthesizeWritable: no candidate fits the size budget");
  }
  return rebuild_winner();
}

}  // namespace li::lif
