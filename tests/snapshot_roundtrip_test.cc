// Snapshot round-trip conformance: every index class with a
// WriteSnapshot/OpenSnapshot pair is built, persisted, reopened
// zero-copy, and driven through the same query stream as the original —
// results must be bit-identical, not merely plausible (the reopened
// structure serves from the mmapped file, so any layout drift shows up
// as a divergent answer). Writable classes additionally accept writes
// and merges *after* reopening, proving a mapped base composes with
// fresh mutable deltas. Datasets cover uniform-random, skewed
// (zipf-like power-law with heavy duplication), and the paper's
// maps/weblog/lognormal shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/learned_bloom.h"
#include "classifier/ngram_logistic.h"
#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "dynamic/delta_range_index.h"
#include "dynamic/merge_policy.h"
#include "hash/chained_hash_map.h"
#include "lif/synthesizer.h"
#include "rmi/rmi.h"
#include "snapshot/snapshot.h"

namespace li {
namespace {

using rmi::LinearRmi;
using DeltaRmi = dynamic::DeltaRangeIndex<LinearRmi>;
using ConcRmi = concurrent::ConcurrentWritableIndex<LinearRmi>;
using ShardedRmi = concurrent::ShardedIndex<ConcRmi>;

std::string TmpSnap(const std::string& name) {
  return ::testing::TempDir() + "li_roundtrip_" + name + ".snap";
}

size_t StdLowerBound(const std::vector<uint64_t>& v, uint64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), key) - v.begin());
}

/// Present keys, near-misses, and uniform probes — the standard mixed
/// query stream used by the RMI conformance tests.
std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   size_t count, uint64_t seed) {
  std::vector<uint64_t> qs;
  qs.reserve(count + 4);
  Xorshift128Plus rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0: qs.push_back(k); break;
      case 1: qs.push_back(k + 1); break;
      case 2: qs.push_back(k == 0 ? 0 : k - 1); break;
      default: qs.push_back(rng.Next()); break;
    }
  }
  qs.push_back(0);
  qs.push_back(keys.front());
  qs.push_back(keys.back());
  qs.push_back(~uint64_t{0});
  return qs;
}

/// Zipf-like skew: key = floor(space / rank^~1) over random ranks, which
/// yields a heavily duplicated head and a long sparse tail.
std::vector<uint64_t> GenZipfish(size_t n, uint64_t seed) {
  Xorshift128Plus rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t rank = rng.NextBounded(1'000'000) + 1;
    keys.push_back(uint64_t{1'000'000'000'000} / rank);
  }
  std::sort(keys.begin(), keys.end());
  return keys;  // duplicates intentionally kept
}

// ---- RMI ----

class RmiRoundTripTest : public ::testing::TestWithParam<data::DatasetKind> {};

TEST_P(RmiRoundTripTest, ReopenedLookupsBitIdentical) {
  const auto keys = data::Generate(GetParam(), 60'000, 17);
  rmi::RmiConfig config;
  config.num_leaf_models = 600;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  EXPECT_FALSE(built.FromSnapshot());

  const std::string path = TmpSnap(data::DatasetName(GetParam()));
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = LinearRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(reopened.value().FromSnapshot());
  EXPECT_EQ(reopened.value().SizeBytes(), built.SizeBytes());

  for (const uint64_t q : MixedQueries(keys, 20'000, 3)) {
    ASSERT_EQ(reopened.value().LowerBound(q), built.LowerBound(q)) << q;
    ASSERT_EQ(reopened.value().LowerBound(q), StdLowerBound(keys, q)) << q;
  }
  // Batch path serves from the mapping too.
  const auto qs = MixedQueries(keys, 4'096, 5);
  std::vector<size_t> got(qs.size()), want(qs.size());
  reopened.value().LookupBatch(qs, got);
  built.LookupBatch(qs, want);
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Datasets, RmiRoundTripTest,
                         ::testing::Values(data::DatasetKind::kMaps,
                                           data::DatasetKind::kWeblog,
                                           data::DatasetKind::kLognormal));

TEST(RmiRoundTripTest, DuplicateHeavyZipfKeys) {
  const auto keys = GenZipfish(50'000, 23);
  rmi::RmiConfig config;
  config.num_leaf_models = 500;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  const std::string path = TmpSnap("zipf");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = LinearRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  for (const uint64_t q : MixedQueries(keys, 20'000, 29)) {
    ASSERT_EQ(reopened.value().LowerBound(q), StdLowerBound(keys, q)) << q;
  }
  std::remove(path.c_str());
}

TEST(RmiRoundTripTest, DoubleKeys) {
  const auto raw = data::GenLognormal(40'000, 31);
  std::vector<double> keys;
  keys.reserve(raw.size());
  for (const uint64_t k : raw) keys.push_back(static_cast<double>(k) * 0.5);
  rmi::RmiConfig config;
  config.num_leaf_models = 400;
  rmi::DoubleRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  const std::string path = TmpSnap("double");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = rmi::DoubleRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Xorshift128Plus rng(37);
  for (int i = 0; i < 20'000; ++i) {
    const double q = keys[rng.NextBounded(keys.size())] +
                     static_cast<double>(rng.NextBounded(3)) - 1.0;
    ASSERT_EQ(reopened.value().LowerBound(q), built.LowerBound(q)) << q;
  }
  std::remove(path.c_str());
}

TEST(RmiRoundTripTest, CorruptSnapshotRejectedCleanly) {
  const auto keys = data::GenLognormal(10'000, 41);
  rmi::RmiConfig config;
  config.num_leaf_models = 100;
  LinearRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  const std::string path = TmpSnap("corrupt");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());

  // Truncate to half: the envelope check fires, Open returns a Status.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long half = std::ftell(f) / 2;
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), half), 0);
  }
  EXPECT_FALSE(LinearRmi::OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

// The leaf table is written verbatim, so any padding byte inside a Leaf
// would carry whatever the allocation held: two builds over the same keys
// must write byte-identical snapshots.
TEST(RmiRoundTripTest, SameKeysWriteIdenticalBytes) {
  const auto keys = data::GenLognormal(30'000, 43);
  rmi::RmiConfig config;
  config.num_leaf_models = 300;
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    {
      // Leave non-zero garbage behind for the next build's allocations.
      std::vector<unsigned char> dirt(config.num_leaf_models * 64,
                                      static_cast<unsigned char>(0xA5 + run));
      ASSERT_EQ(dirt.back(), static_cast<unsigned char>(0xA5 + run));
    }
    LinearRmi built;
    ASSERT_TRUE(built.Build(keys, config).ok());
    const std::string path = TmpSnap("determinism" + std::to_string(run));
    ASSERT_TRUE(built.WriteSnapshot(path).ok());
    bytes[run] = FileBytes(path);
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << "snapshot bytes differ between builds";
}

// ---- Bloom ----

TEST(BloomRoundTripTest, BitmapIdenticalAfterReopen) {
  bloom::BloomFilter built;
  ASSERT_TRUE(built.Init(20'000, 0.01).ok());
  Xorshift128Plus rng(47);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20'000; ++i) keys.push_back(rng.Next());
  for (const uint64_t k : keys) built.Add(k);

  const std::string path = TmpSnap("bloom");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = bloom::BloomFilter::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();

  for (const uint64_t k : keys) {
    ASSERT_TRUE(reopened.value().MightContain(k));
  }
  // Any probe — positive or negative — answers identically: same bits,
  // same hashes.
  for (int i = 0; i < 50'000; ++i) {
    const uint64_t probe = rng.Next();
    ASSERT_EQ(reopened.value().MightContain(probe), built.MightContain(probe));
  }
  std::remove(path.c_str());
}

class LearnedBloomRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = data::GenUrls(20'000, 30'000, 41);
    const size_t third = corpus_.random_negatives.size() / 3;
    train_neg_.assign(corpus_.random_negatives.begin(),
                      corpus_.random_negatives.begin() + third);
    valid_neg_.assign(corpus_.random_negatives.begin() + third,
                      corpus_.random_negatives.begin() + 2 * third);
    test_neg_.assign(corpus_.random_negatives.begin() + 2 * third,
                     corpus_.random_negatives.end());
    classifier::NgramConfig config;
    config.num_buckets = 2048;
    ASSERT_TRUE(model_.Train(corpus_.keys, train_neg_, config).ok());
  }

  data::UrlCorpus corpus_;
  std::vector<std::string> train_neg_, valid_neg_, test_neg_;
  classifier::NgramLogistic model_;
};

TEST_F(LearnedBloomRoundTripTest, ReopenWithResuppliedClassifier) {
  bloom::LearnedBloomFilter<classifier::NgramLogistic> built;
  ASSERT_TRUE(built.Build(&model_, corpus_.keys, valid_neg_, 0.01).ok());

  const std::string path = TmpSnap("learned_bloom");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  // The classifier is not serialized (it is shared, caller-owned state);
  // the caller re-supplies it at open.
  auto reopened = bloom::LearnedBloomFilter<classifier::NgramLogistic>::
      OpenSnapshot(path, &model_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();

  for (const auto& k : corpus_.keys) {
    ASSERT_TRUE(reopened.value().MightContain(k)) << k;
  }
  for (const auto& n : test_neg_) {
    ASSERT_EQ(reopened.value().MightContain(n), built.MightContain(n)) << n;
  }
  std::remove(path.c_str());
}

// ---- Hash ----

std::vector<hash::Record> MakeRecords(const std::vector<uint64_t>& keys) {
  std::vector<hash::Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(
        hash::Record{keys[i], i, static_cast<uint32_t>(i & 0xFFFF)});
  }
  return records;
}

class HashRoundTripTest : public ::testing::TestWithParam<hash::HashKind> {};

TEST_P(HashRoundTripTest, FindIdenticalAfterReopen) {
  auto keys = data::GenUniform(30'000, 53);
  // Inject duplicates: Build keeps the first record per key, and the
  // reopened table must preserve exactly that choice.
  keys.resize(29'000);
  for (int i = 0; i < 1'000; ++i) keys.push_back(keys[i]);
  const auto records = MakeRecords(keys);

  hash::ChainedHashMapConfig config;
  config.num_slots = 24'000;
  config.hash.kind = GetParam();
  config.hash.seed = 59;
  hash::ChainedHashMap built;
  ASSERT_TRUE(built.Build(records, config).ok());

  const std::string path = TmpSnap(
      GetParam() == hash::HashKind::kRandom ? "hash_rand" : "hash_cdf");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = hash::ChainedHashMap::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().num_records(), built.num_records());

  Xorshift128Plus rng(61);
  for (const auto& r : records) {
    const hash::Record* a = built.Find(r.key);
    const hash::Record* b = reopened.value().Find(r.key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->payload, b->payload) << r.key;  // keep-first preserved
  }
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t probe = rng.Next();
    const hash::Record* a = built.Find(probe);
    const hash::Record* b = reopened.value().Find(probe);
    ASSERT_EQ(a == nullptr, b == nullptr) << probe;
    if (a != nullptr) {
      ASSERT_EQ(a->payload, b->payload) << probe;
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, HashRoundTripTest,
                         ::testing::Values(hash::HashKind::kRandom,
                                           hash::HashKind::kLearnedCdf));

// ---- Delta / concurrent / sharded writable wrappers ----

std::vector<uint64_t> SeedKeys(size_t n, uint64_t seed) {
  auto keys = data::GenLognormal(n, seed);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Compares idx against the oracle set on ranks, membership, and a full
/// scan, then proves the reopened index still *writes*: inserts, erases
/// and an explicit merge against a mapped base.
template <typename Idx>
void CheckAndMutate(Idx& idx, std::set<uint64_t>& oracle, uint64_t seed) {
  std::vector<uint64_t> ref(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  ASSERT_EQ(idx.Scan(0, ref.size() + 1), ref);
  Xorshift128Plus rng(seed);
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(ref, q)) << q;
    ASSERT_EQ(idx.Contains(q), oracle.count(q) > 0) << q;
  }
  // Post-reopen writes: the mapped base composes with a fresh delta.
  for (int i = 0; i < 3'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(idx.Erase(k), oracle.erase(k) > 0) << "op " << i;
    } else {
      ASSERT_EQ(idx.Insert(k), oracle.insert(k).second) << "op " << i;
    }
  }
  ASSERT_TRUE(idx.Merge().ok());  // consolidates into an owned base
  ref.assign(oracle.begin(), oracle.end());
  ASSERT_EQ(idx.size(), ref.size());
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t q = rng.NextBounded(2'000'000'100);
    ASSERT_EQ(idx.Lookup(q), StdLowerBound(ref, q)) << q;
  }
}

TEST(DeltaRoundTripTest, SnapshotMidStreamThenKeepWriting) {
  const auto keys = SeedKeys(20'000, 67);
  dynamic::MergePolicy policy;
  policy.trigger = dynamic::MergeTrigger::kManual;
  DeltaRmi::Config config;
  config.base.num_leaf_models = 256;
  config.policy = policy;
  DeltaRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());

  // Mutate before snapshotting so the delta buffer has live content —
  // inserts, erases of base keys, and tombstones all serialize.
  Xorshift128Plus rng(71);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("delta");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = DeltaRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  CheckAndMutate(reopened.value(), oracle, 73);
  std::remove(path.c_str());
}

TEST(ConcurrentRoundTripTest, QuiesceSnapshotReopenAndWrite) {
  const auto keys = SeedKeys(20'000, 79);
  ConcRmi::Config config;
  config.base.num_leaf_models = 256;
  config.policy.trigger = dynamic::MergeTrigger::kManual;
  config.log_cap = 64;  // force freeze folds before the snapshot
  ConcRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(83);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("concurrent");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  // The snapshot is a point-in-time capture: the original keeps serving
  // and writing after the quiesce window closes.
  ASSERT_TRUE(built.Insert(3'000'000'001ull));

  auto reopened = ConcRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  CheckAndMutate(reopened.value(), oracle, 89);
  std::remove(path.c_str());
}

TEST(ShardedRoundTripTest, ManifestComposesPerShardSnapshots) {
  const auto keys = SeedKeys(30'000, 97);
  ShardedRmi::Config config;
  config.inner.base.num_leaf_models = 128;
  config.inner.policy.trigger = dynamic::MergeTrigger::kManual;
  config.num_shards = 4;
  ShardedRmi built;
  ASSERT_TRUE(built.Build(keys, config).ok());
  std::set<uint64_t> oracle(keys.begin(), keys.end());
  Xorshift128Plus rng(101);
  for (int i = 0; i < 4'000; ++i) {
    const uint64_t k = rng.NextBounded(2'000'000'000);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(built.Erase(k), oracle.erase(k) > 0);
    } else {
      ASSERT_EQ(built.Insert(k), oracle.insert(k).second);
    }
  }

  const std::string path = TmpSnap("sharded");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = ShardedRmi::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().num_shards(), built.num_shards());
  CheckAndMutate(reopened.value(), oracle, 103);
  std::remove(path.c_str());
}

// ---- LIF winner ----

TEST(LifRoundTripTest, LinearWinnerReopensViaKindTag) {
  const auto keys = data::GenLognormal(40'000, 107);
  lif::SynthesisSpec spec;
  spec.stage2_sizes = {1'000};
  spec.try_multivariate_top = false;  // constrain the grid to the one
  spec.nn_hidden = {};                // family with a flat snapshot form
  spec.eval_queries = 1'000;
  lif::SynthesizedIndex built;
  ASSERT_TRUE(built.Synthesize(keys, spec).ok());

  const std::string path = TmpSnap("lif");
  ASSERT_TRUE(built.WriteSnapshot(path).ok());
  auto reopened = lif::SynthesizedIndex::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().description(), built.description());

  for (const uint64_t q : MixedQueries(keys, 20'000, 109)) {
    ASSERT_EQ(reopened.value().LowerBound(q), built.LowerBound(q)) << q;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace li
