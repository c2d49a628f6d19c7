// Tests for the LIF synthesizer (all three index classes) and the
// measurement harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/datasets.h"
#include "data/strings.h"
#include "lif/measure.h"
#include "lif/synthesizer.h"
#include "rangefilter/workload.h"

namespace li::lif {
namespace {

TEST(MeasureTest, NsPerOpIsPositiveAndSane) {
  std::vector<uint64_t> queries(1000, 7);
  volatile uint64_t sink = 0;
  const double ns = MeasureNsPerOp(queries, 3, [&](uint64_t q) {
    sink = sink + q;
    return q;
  });
  EXPECT_GT(ns, 0.0);
  EXPECT_LT(ns, 10'000.0);  // a no-op lambda is not microseconds
}

TEST(TableTest, FactorFormatting) {
  EXPECT_EQ(Table::WithFactor(12.5, 2.0), "12.50 (2.00x)");
  EXPECT_EQ(Table::WithFactor(1.0, 0.5, 1), "1.0 (0.50x)");
  EXPECT_EQ(Table::WithPercent(134, 50.8), "134 (50.8%)");
}

TEST(BenchScaleTest, DefaultAndOverride) {
  unsetenv("REPRO_SCALE_M");
  EXPECT_EQ(BenchScaleKeys(2), 2'000'000u);
  setenv("REPRO_SCALE_M", "5", 1);
  EXPECT_EQ(BenchScaleKeys(2), 5'000'000u);
  unsetenv("REPRO_SCALE_M");
}

TEST(SynthesizerTest, FindsWorkingIndexAndReportsAllCandidates) {
  const auto keys = data::GenLognormal(50'000, 61);
  SynthesisSpec spec;
  spec.stage2_sizes = {500, 2000};
  spec.nn_hidden = {{8}};
  spec.nn_epochs = 6;
  spec.eval_queries = 2000;
  SynthesizedIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  // linear + multivariate + 1 NN config, per stage2 size.
  EXPECT_EQ(index.reports().size(), 2u * 3u);
  EXPECT_FALSE(index.description().empty());
  // The synthesized index must be correct.
  for (size_t i = 0; i < keys.size(); i += 37) {
    EXPECT_EQ(index.LowerBound(keys[i]), i);
  }
}

TEST(SynthesizerTest, SizeBudgetIsRespected) {
  const auto keys = data::GenLognormal(50'000, 62);
  SynthesisSpec spec;
  spec.stage2_sizes = {100, 10'000};
  spec.nn_hidden = {};
  spec.try_multivariate_top = false;
  spec.eval_queries = 1000;
  spec.size_budget_bytes = 100 * 32 + 1024;  // only the 100-leaf config fits
  SynthesizedIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  EXPECT_LE(index.SizeBytes(), spec.size_budget_bytes);
}

TEST(SynthesizerTest, ImpossibleBudgetFails) {
  const auto keys = data::GenLognormal(10'000, 63);
  SynthesisSpec spec;
  spec.stage2_sizes = {1000};
  spec.nn_hidden = {};
  spec.try_multivariate_top = false;
  spec.eval_queries = 500;
  spec.size_budget_bytes = 16;  // nothing fits
  SynthesizedIndex index;
  EXPECT_FALSE(index.Synthesize(keys, spec).ok());
}

// A failed re-synthesis must not keep serving the previous call's winner.
TEST(SynthesizerTest, FailedResynthesisLeavesEmptyHandle) {
  const auto keys = data::GenLognormal(10'000, 63);
  SynthesisSpec spec;
  spec.stage2_sizes = {100};
  spec.nn_hidden = {};
  spec.try_multivariate_top = false;
  spec.eval_queries = 500;
  SynthesizedIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  ASSERT_FALSE(index.description().empty());
  ASSERT_GT(index.SizeBytes(), 0u);
  spec.size_budget_bytes = 16;  // nothing fits
  EXPECT_EQ(index.Synthesize(keys, spec).code(), StatusCode::kNotFound);
  EXPECT_TRUE(index.description().empty());
  EXPECT_EQ(index.SizeBytes(), 0u);
  EXPECT_EQ(index.LowerBound(keys[keys.size() / 2]), 0u);
}

TEST(SynthesizerTest, EmptyKeysRejected) {
  SynthesizedIndex index;
  EXPECT_FALSE(index.Synthesize({}, SynthesisSpec{}).ok());
}

TEST(WritableSynthesizerTest, QualifiesDeltaWrappedCandidatesOnMixedLoad) {
  const auto keys = data::GenLognormal(40'000, 64);
  WritableSynthesisSpec spec;
  spec.stage2_sizes = {500, 2000};
  spec.btree_pages = {128};
  spec.insert_ratio = 0.10;
  spec.eval_ops = 8'000;
  SynthesizedWritableIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  // 2 delta-RMI configs + 1 delta-BTree config, all reported.
  EXPECT_EQ(index.reports().size(), 3u);
  EXPECT_FALSE(index.description().empty());
  for (const auto& r : index.reports()) {
    EXPECT_GT(r.mixed_ns, 0.0) << r.description;
    EXPECT_GT(r.lookup_ns, 0.0) << r.description;
  }
  // The winner is rebuilt over the FULL key set: ranks must match
  // std::lower_bound over the original keys, and writes must work.
  for (size_t i = 0; i < keys.size(); i += 41) {
    ASSERT_EQ(index.Lookup(keys[i]), i);
    ASSERT_TRUE(index.Contains(keys[i]));
  }
  const uint64_t fresh = keys.back() + 17;
  EXPECT_TRUE(index.Insert(fresh));
  EXPECT_TRUE(index.Contains(fresh));
  EXPECT_EQ(index.size(), keys.size() + 1);
  EXPECT_TRUE(index.Merge().ok());
  EXPECT_TRUE(index.Contains(fresh));
  EXPECT_EQ(index.Scan(fresh, 5), (std::vector<uint64_t>{fresh}));
  EXPECT_GT(index.Stats().merges, 0u);
}

TEST(WritableSynthesizerTest, ConcurrentAxisQualifiesUnderThreadedStream) {
  const auto keys = data::GenLognormal(30'000, 66);
  WritableSynthesisSpec spec;
  spec.stage2_sizes = {500};
  spec.btree_pages = {};
  spec.try_delta_btree = false;
  spec.try_concurrent = true;
  spec.try_sharded = true;
  spec.shard_counts = {2, 4};
  spec.eval_threads = 2;
  spec.insert_ratio = 0.10;
  spec.eval_ops = 6'000;
  spec.log_cap = 256;
  SynthesizedWritableIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  // 1 delta-RMI + 1 concurrent + 2 sharded configs, all reported.
  ASSERT_EQ(index.reports().size(), 4u);
  size_t threaded = 0;
  for (const auto& r : index.reports()) {
    EXPECT_GT(r.mixed_ns, 0.0) << r.description;
    if (r.threads > 1) ++threaded;
  }
  EXPECT_EQ(threaded, 3u) << "concurrent candidates carry their thread count";
  // Whatever won is a fully functional writable index over the full keys.
  for (size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_EQ(index.Lookup(keys[i]), i);
  }
  const uint64_t fresh = keys.back() + 23;
  EXPECT_TRUE(index.Insert(fresh));
  EXPECT_TRUE(index.Contains(fresh));
  EXPECT_TRUE(index.Merge().ok());
  EXPECT_TRUE(index.Contains(fresh));
}

TEST(WritableSynthesizerTest, RebalanceAxisQualifiesUnderSkewedStream) {
  const auto keys = data::GenLognormal(30'000, 67);
  WritableSynthesisSpec spec;
  spec.stage2_sizes = {500};
  spec.btree_pages = {};
  spec.try_delta_rmi = false;
  spec.try_delta_btree = false;
  spec.try_sharded = true;
  spec.shard_counts = {4};
  spec.shard_imbalance_factors = {0.0, 2.0};  // fixed vs adaptive boundaries
  spec.insert_skew.kind = InsertSkew::Kind::kZipf;
  spec.insert_skew.zipf_s = 1.2;
  spec.eval_threads = 2;
  spec.insert_ratio = 0.5;
  spec.eval_ops = 6'000;
  spec.log_cap = 256;
  SynthesizedWritableIndex index;
  ASSERT_TRUE(index.Synthesize(keys, spec).ok());
  // One sharded candidate per imbalance factor, both reported.
  ASSERT_EQ(index.reports().size(), 2u);
  EXPECT_EQ(index.reports()[0].description.find("rebal@"), std::string::npos);
  EXPECT_NE(index.reports()[1].description.find("rebal@"), std::string::npos);
  for (const auto& r : index.reports()) {
    EXPECT_GT(r.mixed_ns, 0.0) << r.description;
    EXPECT_EQ(r.threads, 2u) << r.description;
  }
  // The winner rebuilt over the full key set keeps exact semantics.
  for (size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_EQ(index.Lookup(keys[i]), i);
  }
  const uint64_t fresh = keys.back() + 29;
  EXPECT_TRUE(index.Insert(fresh));
  EXPECT_TRUE(index.Contains(fresh));
  EXPECT_TRUE(index.Merge().ok());
  EXPECT_TRUE(index.Contains(fresh));
}

TEST(WritableSynthesizerTest, BadInputsRejected) {
  SynthesizedWritableIndex index;
  EXPECT_FALSE(index.Synthesize({}, WritableSynthesisSpec{}).ok());
  const auto keys = data::GenLognormal(5'000, 65);
  WritableSynthesisSpec spec;
  spec.insert_ratio = 1.5;
  EXPECT_FALSE(index.Synthesize(keys, spec).ok());
  spec.insert_ratio = 0.1;
  spec.size_budget_bytes = 16;  // nothing fits
  EXPECT_FALSE(index.Synthesize(keys, spec).ok());
}

TEST(PointSynthesizerTest, EnumeratesAllFamiliesAndFindsCorrectIndex) {
  const auto keys = data::GenMaps(40'000, 71);
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, 0});
  }
  PointSynthesisSpec spec;
  spec.slot_percents = {75, 100};
  spec.cdf_leaf_models = 2000;
  spec.eval_queries = 2000;
  SynthesizedPointIndex index;
  ASSERT_TRUE(index.Synthesize(records, spec).ok());
  // 2 hash families x (2 chained slot budgets + inplace) + 2 cuckoo modes.
  EXPECT_EQ(index.reports().size(), 2u * 3u + 2u);
  EXPECT_FALSE(index.description().empty());
  // The synthesized index must be correct for hits and misses.
  const std::set<uint64_t> keyset(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); i += 37) {
    const hash::Record* r = index.Find(keys[i]);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->key, keys[i]);
  }
  uint64_t absent = 1;
  while (keyset.count(absent)) ++absent;
  EXPECT_EQ(index.Find(absent), nullptr);
  // Batch probes route through the erased winner too.
  std::vector<const hash::Record*> out(keys.size());
  index.FindBatch(keys, out);
  for (size_t i = 0; i < keys.size(); i += 53) {
    ASSERT_EQ(out[i], index.Find(keys[i]));
  }
  EXPECT_GT(index.SizeBytes(), 0u);
  EXPECT_GT(index.Stats().num_slots, 0u);
}

TEST(PointSynthesizerTest, BudgetExcludesOversizedCandidates) {
  const auto keys = data::GenLognormal(20'000, 72);
  std::vector<hash::Record> records;
  for (size_t i = 0; i < keys.size(); ++i) records.push_back({keys[i], i, 0});
  PointSynthesisSpec spec;
  spec.slot_percents = {100, 125};
  spec.try_learned_hash = false;
  spec.try_cuckoo = false;
  spec.eval_queries = 1000;
  // Fits the 100% chained map and the inplace map, not the 125% table.
  spec.size_budget_bytes = (keys.size() + keys.size() / 20) * 32;
  SynthesizedPointIndex index;
  ASSERT_TRUE(index.Synthesize(records, spec).ok());
  EXPECT_LE(index.SizeBytes(), spec.size_budget_bytes);
  bool saw_over_budget = false;
  for (const auto& r : index.reports()) saw_over_budget |= !r.within_budget;
  EXPECT_TRUE(saw_over_budget);
}

TEST(PointSynthesizerTest, EmptyRecordsRejected) {
  SynthesizedPointIndex index;
  EXPECT_FALSE(index.Synthesize({}, PointSynthesisSpec{}).ok());
}

TEST(PointSynthesizerTest, ConcurrentAxisQualifiesWrappersAtFourThreads) {
  // The concurrent axis wraps the chained and cuckoo families in
  // ConcurrentPointIndex and qualifies them under a 4-thread mixed
  // stream. MeasureConcurrentPointCandidate finishes with an exact-map
  // oracle pass over the quiesced index and returns an error Status on
  // any disagreement, so Synthesize().ok() here *is* the oracle gate.
  const auto keys = data::GenMaps(30'000, 74);
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back({keys[i], i, 0});
  }
  PointSynthesisSpec spec;
  spec.slot_percents = {100};
  spec.try_learned_hash = false;
  spec.try_inplace = false;
  spec.try_concurrent = true;
  spec.eval_threads = 4;
  spec.eval_queries = 2000;
  spec.eval_ops = 8'000;
  spec.log_cap = 256;
  spec.rebuild_entries = 512;
  SynthesizedPointIndex index;
  ASSERT_TRUE(index.Synthesize(records, spec).ok());
  size_t concurrent_reports = 0;
  for (const auto& r : index.reports()) {
    if (r.description.rfind("concurrent-point", 0) == 0) {
      ++concurrent_reports;
      EXPECT_EQ(r.threads, 4u) << r.description;
      EXPECT_GT(r.mixed_ns, 0.0) << r.description;
      EXPECT_GT(r.size_bytes, 0u) << r.description;
    } else {
      EXPECT_EQ(r.threads, 1u) << r.description;
    }
  }
  EXPECT_EQ(concurrent_reports, 2u) << "chained + cuckoo wrappers";
  // Report-only: the erased winner still serves single-threaded
  // pointer-returning probes from the static grid.
  for (size_t i = 0; i < keys.size(); i += 37) {
    const hash::Record* r = index.Find(keys[i]);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->key, keys[i]);
  }
}

class ExistenceSynthesizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = data::GenUrls(8000, 12'000, 73);
    const size_t third = corpus_.random_negatives.size() / 3;
    train_neg_.assign(corpus_.random_negatives.begin(),
                      corpus_.random_negatives.begin() + third);
    valid_neg_.assign(corpus_.random_negatives.begin() + third,
                      corpus_.random_negatives.begin() + 2 * third);
    test_neg_.assign(corpus_.random_negatives.begin() + 2 * third,
                     corpus_.random_negatives.end());
  }

  data::UrlCorpus corpus_;
  std::vector<std::string> train_neg_, valid_neg_, test_neg_;
};

TEST_F(ExistenceSynthesizerTest, SweepsConstructionsAndMeetsFprTarget) {
  ExistenceSynthesisSpec spec;
  spec.target_fpr = 0.01;
  spec.ngram_buckets = {1024, 4096};
  SynthesizedExistenceIndex index;
  ASSERT_TRUE(index.Synthesize(corpus_.keys, train_neg_, valid_neg_,
                               test_neg_, spec)
                  .ok());
  // plain + per-capacity (learned + 2 bitmap sizes).
  EXPECT_EQ(index.reports().size(), 1u + 2u * 3u);
  EXPECT_FALSE(index.description().empty());
  // Zero false negatives — the winner must keep the §5 invariant.
  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(index.MightContain(k)) << k;
  }
  EXPECT_GT(index.SizeBytes(), 0u);
  // The winner is the smallest candidate qualifying on the validation
  // split (the same gate the synthesizer applies; the eval-split r.fpr is
  // reporting only).
  EXPECT_LE(index.MeasuredFpr(valid_neg_), spec.target_fpr * spec.fpr_slack);
  for (const auto& r : index.reports()) {
    if (r.within_budget && r.valid_fpr <= spec.target_fpr * spec.fpr_slack) {
      EXPECT_LE(index.SizeBytes(), r.size_bytes) << r.description;
    }
  }
}

TEST_F(ExistenceSynthesizerTest, LearnedCandidateBeatsPlainBloomOnUrls) {
  // The §5.2 headline must fall out of the synthesizer: on a learnable
  // corpus some learned candidate is smaller than the plain filter.
  ExistenceSynthesisSpec spec;
  spec.target_fpr = 0.01;
  SynthesizedExistenceIndex index;
  ASSERT_TRUE(index.Synthesize(corpus_.keys, train_neg_, valid_neg_,
                               test_neg_, spec)
                  .ok());
  size_t plain_bytes = 0;
  for (const auto& r : index.reports()) {
    if (r.description == "plain bloom") plain_bytes = r.size_bytes;
  }
  ASSERT_GT(plain_bytes, 0u);
  EXPECT_LT(index.SizeBytes(), plain_bytes);
}

TEST_F(ExistenceSynthesizerTest, ConcurrentAxisQualifiesFiltersAtFourThreads) {
  // Concurrent axis: plain and learned constructions wrapped in
  // RebuildableExistence, driven by 4 threads of mixed insert/probe
  // traffic. MeasureConcurrentExistenceCandidate verifies zero false
  // negatives over corpus + executed inserts once quiesced and fails
  // Synthesize on a violation, so a passing status carries the §5
  // guarantee extended to online keys.
  ExistenceSynthesisSpec spec;
  spec.target_fpr = 0.01;
  spec.ngram_buckets = {1024};
  spec.try_model_hash = false;
  spec.try_concurrent = true;
  spec.eval_threads = 4;
  spec.eval_ops = 6'000;
  spec.side_log_cap = 256;
  spec.rebuild_staleness = 0.02;
  SynthesizedExistenceIndex index;
  ASSERT_TRUE(index.Synthesize(corpus_.keys, train_neg_, valid_neg_,
                               test_neg_, spec)
                  .ok());
  size_t concurrent_reports = 0;
  for (const auto& r : index.reports()) {
    if (r.description.rfind("concurrent-existence", 0) == 0) {
      ++concurrent_reports;
      EXPECT_EQ(r.threads, 4u) << r.description;
      EXPECT_GT(r.mixed_ns, 0.0) << r.description;
      if (r.description.find("plain bloom") != std::string::npos) {
        // Rebuilds re-target the plain filter at 1%; the measured FPR
        // over the held-out negatives must stay near that calibration.
        EXPECT_LT(r.fpr, 0.05) << r.description;
      }
    }
  }
  EXPECT_GE(concurrent_reports, 2u) << "plain bloom + learned wrappers";
  // Report-only: the static winner keeps the zero-false-negative
  // invariant untouched by the concurrent sweep.
  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(index.MightContain(k)) << k;
  }
}

TEST_F(ExistenceSynthesizerTest, BadInputsRejected) {
  SynthesizedExistenceIndex index;
  ExistenceSynthesisSpec spec;
  EXPECT_FALSE(
      index.Synthesize({}, train_neg_, valid_neg_, test_neg_, spec).ok());
  EXPECT_FALSE(
      index.Synthesize(corpus_.keys, train_neg_, {}, test_neg_, spec).ok());
  spec.target_fpr = 0.0;
  EXPECT_FALSE(
      index.Synthesize(corpus_.keys, train_neg_, valid_neg_, test_neg_, spec)
          .ok());
}

TEST_F(ExistenceSynthesizerTest, RangeAxisSweepsFiltersAndKeepsZeroFn) {
  // The range-query axis: sweep both src/rangefilter/ constructions over
  // an adversarially gapped integer key set. The winner must be the
  // smallest qualifying candidate, every report row must be populated,
  // and the no-false-negative contract must hold through the erased
  // handle (the synthesizer's internal witness oracle already failed the
  // sweep if any candidate dropped a range — this re-checks the winner
  // independently).
  const std::vector<uint64_t> keys =
      rangefilter::GenAdversarialGapKeys(30'000, 81);
  RangeFilterSynthesisSpec spec;
  spec.bits_per_key = {8.0, 16.0, 32.0};
  spec.keys_per_segment = {256};
  SynthesizedExistenceIndex index;
  ASSERT_TRUE(index.SynthesizeRange(keys, spec).ok());

  // learned (1 kps) + interval, per budget.
  EXPECT_EQ(index.range_reports().size(), 2u * 3u);
  EXPECT_FALSE(index.range_description().empty());
  EXPECT_GT(index.RangeSizeBytes(), 0u);
  for (const auto& r : index.range_reports()) {
    EXPECT_GT(r.size_bytes, 0u) << r.description;
    EXPECT_GE(r.fpr, 0.0) << r.description;
    if (r.within_budget && r.valid_fpr <= spec.target_range_fpr * spec.fpr_slack) {
      EXPECT_LE(index.RangeSizeBytes(), r.size_bytes) << r.description;
    }
  }
  // Zero false negatives through the winner: witness ranges around
  // built keys must always answer true.
  for (const index::RangeQuery& w :
       rangefilter::GenWitnessRanges(keys, 82, 5'000)) {
    ASSERT_TRUE(index.MightContainRange(w.lo, w.hi))
        << "[" << w.lo << ", " << w.hi << ")";
  }
  // The winner qualifies on its own generated validation mix; a fresh
  // empty-query set from a different seed must measure in the same
  // regime (the slack absorbs the split wobble).
  const auto empties = rangefilter::GenEmptyRanges(keys, 83);
  EXPECT_LE(index.MeasuredRangeFpr(empties),
            spec.target_range_fpr * spec.fpr_slack * 2.0);

  // The point sweep is untouched by the range sweep and vice versa.
  EXPECT_TRUE(index.reports().empty());
}

TEST_F(ExistenceSynthesizerTest, FailedRangeResynthesisLeavesEmptyHandle) {
  const std::vector<uint64_t> keys = rangefilter::GenUniformKeys(1'000, 84);
  RangeFilterSynthesisSpec spec;
  SynthesizedExistenceIndex index;
  ASSERT_TRUE(index.SynthesizeRange(keys, spec).ok());
  ASSERT_FALSE(index.range_description().empty());
  ASSERT_TRUE(index.MightContainRange(0, ~uint64_t{0}));
  spec.size_budget_bytes = 1;
  EXPECT_EQ(index.SynthesizeRange(keys, spec).code(), StatusCode::kNotFound);
  EXPECT_TRUE(index.range_description().empty());
  EXPECT_EQ(index.RangeSizeBytes(), 0u);
  EXPECT_FALSE(index.MightContainRange(0, ~uint64_t{0}));
}

TEST_F(ExistenceSynthesizerTest, RangeAxisRejectsBadInputs) {
  SynthesizedExistenceIndex index;
  RangeFilterSynthesisSpec spec;
  EXPECT_FALSE(index.SynthesizeRange({}, spec).ok());
  spec.target_range_fpr = 0.0;
  const std::vector<uint64_t> keys = rangefilter::GenUniformKeys(1'000, 84);
  EXPECT_FALSE(index.SynthesizeRange(keys, spec).ok());
  // An unreachable FPR target under an impossible budget reports
  // NotFound, leaving the handle empty (= the empty set).
  RangeFilterSynthesisSpec tight;
  tight.size_budget_bytes = 1;
  EXPECT_FALSE(index.SynthesizeRange(keys, tight).ok());
  EXPECT_FALSE(index.MightContainRange(0, ~uint64_t{0}));
}

}  // namespace
}  // namespace li::lif
