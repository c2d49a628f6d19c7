// Tests for the point-index substrate: hash functions (random, learned
// CDF, the config-selected PointHash), conflict counting, and the
// chained / cuckoo / in-place-chained maps built through the PointIndex
// contract with both hash families.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "data/datasets.h"
#include "hash/chained_hash_map.h"
#include "hash/cuckoo_map.h"
#include "hash/hash_fn.h"
#include "hash/inplace_chained_map.h"

namespace li::hash {
namespace {

std::vector<Record> MakeRecords(const std::vector<uint64_t>& keys) {
  std::vector<Record> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(Record{keys[i], i, static_cast<uint32_t>(i & 0xFFFF)});
  }
  return records;
}

ChainedHashMapConfig RandomChained(uint64_t num_slots, uint64_t seed = 7) {
  ChainedHashMapConfig config;
  config.num_slots = num_slots;
  config.hash.kind = HashKind::kRandom;
  config.hash.seed = seed;
  return config;
}

ChainedHashMapConfig LearnedChained(uint64_t num_slots,
                                    size_t leaf_models = 10'000) {
  ChainedHashMapConfig config;
  config.num_slots = num_slots;
  config.hash.kind = HashKind::kLearnedCdf;
  config.hash.cdf_leaf_models = leaf_models;
  return config;
}

TEST(RandomHashTest, InRangeAndDeterministic) {
  RandomHash h(1000, 5);
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 10'000; ++k) {
    const uint64_t s = h(k);
    EXPECT_LT(s, 1000u);
    seen.insert(s);
  }
  EXPECT_GT(seen.size(), 990u);  // essentially all slots reachable
  RandomHash h2(1000, 5);
  EXPECT_EQ(h(123456), h2(123456));
}

TEST(ConflictRateTest, BirthdayParadoxForRandomHash) {
  // n keys into n slots: expected conflict fraction ~ 1 - (1-e^-1) = 36.8%.
  const auto keys = data::GenUniform(200'000, 1);
  RandomHash h(keys.size(), 3);
  const double rate = ConflictRate(keys, h, keys.size());
  EXPECT_NEAR(rate, 0.368, 0.01);
}

TEST(LearnedHashTest, PerfectOnSequentialKeys) {
  // The §4 ideal: keys 0..n-1 into n slots -> zero conflicts.
  const auto keys = data::GenSequential(100'000);
  LearnedHash<models::LinearModel> h;
  rmi::RmiConfig config;
  config.num_leaf_models = 128;
  ASSERT_TRUE(h.Build(keys, keys.size(), config).ok());
  EXPECT_LT(ConflictRate(keys, h, keys.size()), 0.001);
}

TEST(LearnedHashTest, BeatsRandomOnLearnableData) {
  const auto keys = data::GenMaps(200'000, 2);
  LearnedHash<models::LinearModel> learned;
  rmi::RmiConfig config;
  config.num_leaf_models = 10'000;
  ASSERT_TRUE(learned.Build(keys, keys.size(), config).ok());
  RandomHash random(keys.size(), 1);
  const double lr = ConflictRate(keys, learned, keys.size());
  const double rr = ConflictRate(keys, random, keys.size());
  EXPECT_LT(lr, rr);  // Figure-8 headline
}

TEST(LearnedHashTest, SlotsAlwaysInRange) {
  const auto keys = data::GenLognormal(50'000, 3);
  LearnedHash<models::LinearModel> h;
  rmi::RmiConfig config;
  config.num_leaf_models = 1000;
  ASSERT_TRUE(h.Build(keys, 777, config).ok());
  Xorshift128Plus rng(4);
  for (int i = 0; i < 50'000; ++i) {
    EXPECT_LT(h(rng.Next()), 777u);  // arbitrary (unseen) keys too
  }
}

TEST(LearnedHashTest, RescaleMatchesDivisionWithinOneSlot) {
  // The fixed-point rescale ((pos * floor(M 2^64 / N)) >> 64) may round
  // one slot below the exact (pos * M) / N, never above, and stays in
  // range — the satellite optimization must not change hash semantics.
  const auto keys = data::GenLognormal(80'000, 5);
  LearnedHash<models::LinearModel> h;
  rmi::RmiConfig config;
  config.num_leaf_models = 2000;
  for (const uint64_t slots : {777u, 80'000u, 123'456u}) {
    ASSERT_TRUE(h.Build(keys, slots, config).ok());
    Xorshift128Plus rng(6);
    for (int i = 0; i < 20'000; ++i) {
      const uint64_t q = rng.Next();
      const uint64_t fast = h(q);
      const uint64_t exact = h.SlotViaDivision(q);
      EXPECT_LE(fast, exact) << q;
      EXPECT_LE(exact - fast, 1u) << q;
      EXPECT_LT(fast, slots) << q;
    }
  }
}

TEST(PointHashTest, ConfigSelectsFamily) {
  const auto keys = data::GenSequential(50'000);
  HashConfig random_cfg;
  random_cfg.kind = HashKind::kRandom;
  random_cfg.seed = 11;
  PointHash random_fn;
  ASSERT_TRUE(random_fn.Build(keys, keys.size(), random_cfg).ok());
  EXPECT_EQ(random_fn.kind(), HashKind::kRandom);

  HashConfig learned_cfg;
  learned_cfg.kind = HashKind::kLearnedCdf;
  PointHash learned_fn;
  ASSERT_TRUE(learned_fn.Build(keys, keys.size(), learned_cfg).ok());
  EXPECT_EQ(learned_fn.kind(), HashKind::kLearnedCdf);

  // Sequential keys: the learned CDF is conflict-free, random is not.
  EXPECT_LT(ConflictRate(keys, learned_fn, keys.size()), 0.001);
  EXPECT_GT(ConflictRate(keys, random_fn, keys.size()), 0.3);
  // The learned model costs real memory; the random mix does not.
  EXPECT_GT(learned_fn.SizeBytes(), random_fn.SizeBytes());
}

TEST(ChainedHashMapTest, FindAllRecords) {
  const auto keys = data::GenUniform(50'000, 5);
  const auto records = MakeRecords(keys);
  ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, RandomChained(keys.size())).ok());
  for (size_t i = 0; i < records.size(); ++i) {
    const Record* r = map.Find(keys[i]);
    ASSERT_NE(r, nullptr) << keys[i];
    EXPECT_EQ(r->payload, i);
  }
  EXPECT_EQ(map.num_records(), records.size());
}

TEST(ChainedHashMapTest, AbsentKeysReturnNull) {
  const auto keys = data::GenUniform(10'000, 6, uint64_t{1} << 40);
  const auto records = MakeRecords(keys);
  ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, RandomChained(keys.size())).ok());
  Xorshift128Plus rng(8);
  const std::set<uint64_t> keyset(keys.begin(), keys.end());
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t probe = rng.Next();
    if (!keyset.count(probe)) {
      EXPECT_EQ(map.Find(probe), nullptr);
    }
  }
}

TEST(ChainedHashMapTest, NeverBuiltMapFindsNothing) {
  // Regression: Find on a default-constructed map used to index an empty
  // slot vector (UB); the contract requires nullptr.
  ChainedHashMap map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(123456789), nullptr);
  std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<const Record*> out(3, reinterpret_cast<const Record*>(1));
  map.FindBatch(keys, out);
  for (const Record* r : out) EXPECT_EQ(r, nullptr);
  EXPECT_EQ(map.num_records(), 0u);
  EXPECT_EQ(map.Stats().num_slots, 0u);
}

TEST(ChainedHashMapTest, FewerSlotsThanRecordsStillCorrect) {
  const auto keys = data::GenUniform(20'000, 7);
  const auto records = MakeRecords(keys);
  const uint64_t slots = keys.size() * 3 / 4;  // the 75% configuration
  ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, RandomChained(slots, 9)).ok());
  for (size_t i = 0; i < records.size(); i += 13) {
    const Record* r = map.Find(keys[i]);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->payload, i);
  }
  EXPECT_GT(map.overflow_size(), 0u);
}

TEST(ChainedHashMapTest, LearnedHashWastesLessSpace) {
  // Appendix-B headline: learned hash -> fewer empty slots.
  const auto keys = data::GenMaps(100'000, 8);
  const auto records = MakeRecords(keys);
  ChainedHashMap learned_map;
  ASSERT_TRUE(learned_map.Build(records, LearnedChained(keys.size())).ok());
  ChainedHashMap random_map;
  ASSERT_TRUE(random_map.Build(records, RandomChained(keys.size(), 3)).ok());
  EXPECT_LT(learned_map.EmptySlots(), random_map.EmptySlots());
  EXPECT_LT(learned_map.Stats().empty_slots, random_map.Stats().empty_slots);
}

TEST(ChainedHashMapTest, PrebuiltHashBuildMatchesConfigBuild) {
  // The LIF slot sweep trains the CDF hash once and retargets per slot
  // count; the result must be indistinguishable from a from-scratch
  // Build at that slot count.
  const auto keys = data::GenMaps(50'000, 25);
  const auto records = MakeRecords(keys);
  const auto config = LearnedChained(keys.size() * 3 / 4, 2000);
  ChainedHashMap from_config;
  ASSERT_TRUE(from_config.Build(records, config).ok());

  PointHash prebuilt;
  ASSERT_TRUE(
      BuildRecordHash(records, keys.size(), config.hash, &prebuilt).ok());
  ChainedHashMap from_prebuilt;
  ASSERT_TRUE(from_prebuilt.Build(records, config, prebuilt).ok());

  EXPECT_EQ(from_prebuilt.num_slots(), from_config.num_slots());
  EXPECT_EQ(from_prebuilt.EmptySlots(), from_config.EmptySlots());
  EXPECT_EQ(from_prebuilt.overflow_size(), from_config.overflow_size());
  Xorshift128Plus rng(26);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t q =
        rng.NextBounded(2) ? keys[rng.NextBounded(keys.size())] : rng.Next();
    const Record* a = from_config.Find(q);
    const Record* b = from_prebuilt.Find(q);
    ASSERT_EQ(a == nullptr, b == nullptr) << q;
    if (a != nullptr) {
      ASSERT_EQ(a->payload, b->payload) << q;
    }
  }
}

TEST(ChainedHashMapTest, FindBatchMatchesFind) {
  const auto keys = data::GenUniform(40'000, 21);
  const auto records = MakeRecords(keys);
  ChainedHashMap map;
  ASSERT_TRUE(map.Build(records, RandomChained(keys.size() * 3 / 4)).ok());
  Xorshift128Plus rng(22);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 10'000; ++i) {
    probes.push_back(rng.NextBounded(2) ? keys[rng.NextBounded(keys.size())]
                                        : rng.Next());
  }
  std::vector<const Record*> out(probes.size());
  map.FindBatch(probes, out);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i], map.Find(probes[i])) << probes[i];
  }
}

TEST(CuckooMapTest, RoundTrip32BitValues) {
  const auto keys = data::GenUniform(50'000, 9);
  std::vector<uint32_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = static_cast<uint32_t>(i);
  CuckooMap<uint32_t> map;
  CuckooMapConfig config;
  config.load_factor = 0.95;
  ASSERT_TRUE(map.Build(keys, values, config).ok());
  for (size_t i = 0; i < keys.size(); i += 7) {
    const uint32_t* v = map.Find(keys[i]);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_GE(map.utilization(), 0.90);
}

TEST(CuckooMapTest, HighLoadFactorWithRecords) {
  const auto keys = data::GenUniform(50'000, 10);
  const auto records = MakeRecords(keys);
  CuckooMap<Record> map;
  CuckooMapConfig config;
  config.load_factor = 0.99;
  ASSERT_TRUE(map.Build(records, config).ok());
  for (size_t i = 0; i < keys.size(); i += 7) {
    const Record* v = map.Find(keys[i]);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->payload, i);
  }
  EXPECT_GE(map.utilization(), 0.95);
  EXPECT_EQ(map.num_records(), keys.size());
}

TEST(CuckooMapTest, AbsentKeysNullAndNeverBuiltSafe) {
  CuckooMap<uint32_t> never_built;
  EXPECT_EQ(never_built.Find(42), nullptr);

  const auto keys = data::GenUniform(10'000, 11, uint64_t{1} << 40);
  std::vector<uint32_t> values(keys.size(), 1);
  CuckooMap<uint32_t> map;
  ASSERT_TRUE(map.Build(keys, values, {}).ok());
  const std::set<uint64_t> keyset(keys.begin(), keys.end());
  Xorshift128Plus rng(12);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t probe = rng.Next();
    if (!keyset.count(probe)) {
      EXPECT_EQ(map.Find(probe), nullptr);
    }
  }
}

TEST(CuckooMapTest, CarefulModeStillCorrect) {
  const auto keys = data::GenUniform(20'000, 13);
  const auto records = MakeRecords(keys);
  CuckooMap<Record> map;
  CuckooMapConfig config;
  config.careful = true;
  config.load_factor = 0.95;
  ASSERT_TRUE(map.Build(records, config).ok());
  for (size_t i = 0; i < keys.size(); i += 11) {
    ASSERT_NE(map.Find(keys[i]), nullptr);
  }
}

TEST(CuckooMapTest, FindBatchMatchesFind) {
  const auto keys = data::GenUniform(30'000, 23);
  const auto records = MakeRecords(keys);
  CuckooMap<Record> map;
  CuckooMapConfig config;
  config.load_factor = 0.99;
  ASSERT_TRUE(map.Build(records, config).ok());
  Xorshift128Plus rng(24);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 10'000; ++i) {
    probes.push_back(rng.NextBounded(2) ? keys[rng.NextBounded(keys.size())]
                                        : rng.Next());
  }
  std::vector<const Record*> out(probes.size());
  map.FindBatch(probes, out);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i], map.Find(probes[i])) << probes[i];
  }
}

TEST(InplaceChainedMapTest, FullUtilizationAndRoundTrip) {
  const auto keys = data::GenUniform(50'000, 14);
  const auto records = MakeRecords(keys);
  InplaceChainedMapConfig config;
  config.hash.seed = 15;
  InplaceChainedMap map;
  ASSERT_TRUE(map.Build(records, config).ok());
  EXPECT_DOUBLE_EQ(map.utilization(), 1.0);
  EXPECT_EQ(map.num_slots(), keys.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const Record* r = map.Find(keys[i]);
    ASSERT_NE(r, nullptr) << keys[i];
    EXPECT_EQ(r->payload, i);
  }
}

TEST(InplaceChainedMapTest, AbsentKeysIncludingForeignSlots) {
  const auto keys = data::GenUniform(20'000, 16, uint64_t{1} << 40);
  const auto records = MakeRecords(keys);
  InplaceChainedMapConfig config;
  config.hash.seed = 17;
  InplaceChainedMap map;
  ASSERT_TRUE(map.Build(records, config).ok());
  const std::set<uint64_t> keyset(keys.begin(), keys.end());
  Xorshift128Plus rng(18);
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t probe = rng.Next();
    if (!keyset.count(probe)) {
      EXPECT_EQ(map.Find(probe), nullptr);
    }
  }
}

TEST(InplaceChainedMapTest, NeverBuiltMapFindsNothing) {
  InplaceChainedMap map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(987654321), nullptr);
  EXPECT_EQ(map.num_records(), 0u);
}

TEST(InplaceChainedMapTest, LearnedHashShortensChains) {
  // Appendix C: fewer conflicts -> fewer cache misses; probe depth is the
  // proxy.
  const auto keys = data::GenMaps(100'000, 19);
  const auto records = MakeRecords(keys);
  InplaceChainedMapConfig learned_cfg;
  learned_cfg.hash.kind = HashKind::kLearnedCdf;
  learned_cfg.hash.cdf_leaf_models = 10'000;
  InplaceChainedMap learned_map;
  ASSERT_TRUE(learned_map.Build(records, learned_cfg).ok());
  InplaceChainedMapConfig random_cfg;
  random_cfg.hash.seed = 20;
  InplaceChainedMap random_map;
  ASSERT_TRUE(random_map.Build(records, random_cfg).ok());
  EXPECT_LT(learned_map.MeanChainLength(), random_map.MeanChainLength());
}

}  // namespace
}  // namespace li::hash
