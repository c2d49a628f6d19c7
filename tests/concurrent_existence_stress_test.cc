// ThreadSanitizer-able stress suite for RebuildableExistence<BloomFilter>:
// N inserter + M reader threads, with a write log of a few entries, a low
// staleness ratio and a low side-set floor, so log freezes and background
// filter rebuilds (rotate -> build -> publish) race the readers all the
// time.
//
// Checks:
//  * zero false negatives: every key whose Insert returned before a read
//    began answers MightContain true (inserters publish their progress
//    with a release store; readers only probe keys below the progress
//    they acquired), and so does every build-corpus key;
//  * Insert's return values match an exact oracle: over all threads, a
//    key not in the build corpus is reported new exactly once, a corpus
//    key never (keys are contested by every inserter);
//  * num_keys() is exact at quiesce, and a final synchronous rebuild
//    keeps every key.
//
// A second leg runs the same storm with a rebuilder that fails every
// other call, so the fold-back-on-failure path races readers too.
//
// Thread failures are recorded, never asserted off-thread (gtest asserts
// are not thread-safe), and re-raised on the main thread. All seeds run
// through tests/test_seed.h, so LI_TEST_SEED=<n> sweeps fresh schedules.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/status.h"
#include "concurrent/rebuildable_existence.h"
#include "test_seed.h"

namespace li {
namespace {

using Filter = concurrent::RebuildableExistence<bloom::BloomFilter>;

constexpr size_t kCorpus = 2000;
constexpr size_t kPool = 6000;  // new keys, contested by every inserter
constexpr size_t kInserters = 3;
constexpr size_t kReaders = 3;
constexpr size_t kOpsPerInserter = 4000;

std::string Key(size_t i) { return "doc/" + std::to_string(i * 7919 + 13); }

/// First failure observed by any thread; asserted on the main thread.
class FailureLog {
 public:
  void Record(const std::string& msg) {
    std::lock_guard<std::mutex> lk(mu_);
    if (first_.empty()) first_ = msg;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_.empty();
  }
  std::string first() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  std::string first_;
};

Filter::Config StressConfig(Filter::Rebuilder rebuild) {
  Filter::Config c;
  c.rebuild = std::move(rebuild);
  c.log_cap = 8;           // a freeze every few inserts
  c.staleness = 0.01;      // rebuild once the side set is 1% of the corpus
  c.min_side_keys = 8;
  return c;
}

/// Runs the storm and checks the three oracle properties.
void RunStorm(Filter::Rebuilder rebuild, uint64_t default_seed) {
  const uint64_t seed = testing::TestSeed(default_seed);
  // Keys [0, kCorpus) are the build corpus; [kCorpus, kCorpus + kPool)
  // start absent.
  std::vector<std::string> corpus;
  for (size_t i = 0; i < kCorpus; ++i) corpus.push_back(Key(i));
  Filter filter;
  ASSERT_TRUE(filter.Build(corpus, StressConfig(std::move(rebuild))).ok());

  // Each inserter's op sequence: mostly pool keys (shared with the other
  // inserters), some corpus keys (always already present).
  std::vector<std::vector<size_t>> seqs(kInserters);
  for (size_t t = 0; t < kInserters; ++t) {
    Xorshift128Plus rng(seed + 101 * (t + 1));
    for (size_t i = 0; i < kOpsPerInserter; ++i) {
      seqs[t].push_back(rng.NextBounded(8) == 0
                            ? rng.NextBounded(kCorpus)
                            : kCorpus + rng.NextBounded(kPool));
    }
  }
  // progress[t] = ops of inserter t whose Insert has returned.
  std::vector<std::atomic<size_t>> progress(kInserters);
  std::vector<std::vector<uint8_t>> returned(
      kInserters, std::vector<uint8_t>(kOpsPerInserter, 0));
  std::atomic<size_t> inserters_done{0};
  std::atomic<uint64_t> reads{0};
  FailureLog log;

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kOpsPerInserter && log.ok(); ++i) {
        returned[t][i] = filter.Insert(Key(seqs[t][i])) ? 1 : 0;
        progress[t].store(i + 1, std::memory_order_release);
      }
      inserters_done.fetch_add(1);
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Xorshift128Plus rng(seed + 7777 * (r + 1));
      uint64_t local = 0;
      for (;;) {
        const bool last_pass = inserters_done.load() == kInserters;
        const size_t t = rng.NextBounded(kInserters);
        const size_t done = progress[t].load(std::memory_order_acquire);
        if (done > 0) {
          const size_t i = rng.NextBounded(done);
          if (!filter.MightContain(Key(seqs[t][i]))) {
            log.Record("false negative on inserted key " + Key(seqs[t][i]));
            return;
          }
        }
        const size_t c = rng.NextBounded(kCorpus);
        if (!filter.MightContain(Key(c))) {
          log.Record("false negative on corpus key " + Key(c));
          return;
        }
        ++local;
        if (last_pass || !log.ok()) break;
      }
      reads.fetch_add(local);
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_TRUE(log.ok()) << log.first();
  EXPECT_GT(reads.load(), 0u);

  // Insert return values vs the exact oracle.
  std::vector<size_t> new_reports(kCorpus + kPool, 0);
  std::set<size_t> inserted;
  for (size_t t = 0; t < kInserters; ++t) {
    for (size_t i = 0; i < kOpsPerInserter; ++i) {
      new_reports[seqs[t][i]] += returned[t][i];
      inserted.insert(seqs[t][i]);
    }
  }
  size_t distinct_new = 0;
  for (const size_t k : inserted) {
    const size_t want = k < kCorpus ? 0 : 1;
    ASSERT_EQ(new_reports[k], want) << "key " << Key(k);
    distinct_new += want;
  }

  // Quiesce: exact count, and zero false negatives after a final
  // rebuild (or fold-back) of the whole side set.
  filter.WaitForRebuilds();
  EXPECT_EQ(filter.num_keys(), kCorpus + distinct_new);
  const index::ConcurrentIndexStats cs = filter.ConcurrentStats();
  EXPECT_GT(cs.freezes, 0u);
  EXPECT_GT(cs.background_merges, 0u) << "no rebuild raced the readers";
  (void)filter.Rebuild();
  EXPECT_EQ(filter.num_keys(), kCorpus + distinct_new);
  for (size_t k = 0; k < kCorpus; ++k) ASSERT_TRUE(filter.MightContain(Key(k)));
  for (const size_t k : inserted) ASSERT_TRUE(filter.MightContain(Key(k)));
}

TEST(ConcurrentExistenceStressTest, InsertersAndReadersRaceFreezesAndRebuilds) {
  RunStorm(concurrent::PlainBloomRebuilder(0.01), 0xE1157);
}

TEST(ConcurrentExistenceStressTest, FailedRebuildsFoldBackUnderRacingReaders) {
  auto calls = std::make_shared<std::atomic<uint64_t>>(0);
  Filter::Rebuilder plain = concurrent::PlainBloomRebuilder(0.01);
  // The Build call is the first; every even-numbered call after it fails.
  RunStorm(
      [calls, plain](std::span<const std::string> keys,
                     bloom::BloomFilter* out) -> Status {
        if (calls->fetch_add(1) % 2 == 1) {
          return Status::Internal("injected rebuild failure");
        }
        return plain(keys, out);
      },
      0xFA11);
  EXPECT_GT(calls->load(), 2u);
}

}  // namespace
}  // namespace li
