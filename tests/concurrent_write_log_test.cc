// Unit tests for concurrent/write_log.h, the bounded append-only write
// log under ConcurrentWritableIndex, ConcurrentPointIndex and
// RebuildableExistence. The wrappers' behaviour over it is covered by
// their conformance and stress suites; these pin down the log's own
// contract: newest-first find, the key-ordered newest-per-key walk, the
// capacity boundary, the prefix copy, and the append publication order
// under a racing reader (the last is what the TSan job checks).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "concurrent/write_log.h"

namespace li {
namespace {

struct Entry {
  uint64_t key = 0;
  uint64_t value = 0;
};
struct EntryKey {
  uint64_t operator()(const Entry& e) const { return e.key; }
};
using Log = concurrent::WriteLog<Entry, EntryKey>;

struct StringKey {
  std::string_view operator()(const std::string& s) const { return s; }
};

TEST(WriteLogTest, FindNewestReturnsTheLatestWriteOfAKey) {
  Log log(8);
  log.Append({5, 1});
  log.Append({7, 2});
  log.Append({5, 3});
  log.Append({5, 4});
  log.Append({9, 5});
  ASSERT_EQ(log.published(), 5u);

  const Entry* e = log.FindNewest(log.published(), uint64_t{5});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 4u);
  // Over a shorter prefix the newest visible write is older.
  e = log.FindNewest(3, uint64_t{5});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 3u);
  e = log.FindNewest(2, uint64_t{5});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1u);
  EXPECT_EQ(log.FindNewest(log.published(), uint64_t{6}), nullptr);
  EXPECT_EQ(log.FindNewest(4, uint64_t{9}), nullptr);  // past the prefix
  EXPECT_EQ(log.FindNewest(0, uint64_t{5}), nullptr);
}

TEST(WriteLogTest, KeyGroupsAreKeyOrderedWithFirstAndLastPerKey) {
  Log log(16);
  const uint64_t keys[] = {30, 10, 20, 10, 30, 10, 40};
  for (uint64_t i = 0; i < 7; ++i) log.Append({keys[i], i});

  const auto groups = log.KeyGroups(log.published());
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].key, 10u);
  EXPECT_EQ(groups[0].first, 1u);
  EXPECT_EQ(groups[0].last, 5u);
  EXPECT_EQ(groups[1].key, 20u);
  EXPECT_EQ(groups[1].first, 2u);
  EXPECT_EQ(groups[1].last, 2u);
  EXPECT_EQ(groups[2].key, 30u);
  EXPECT_EQ(groups[2].first, 0u);
  EXPECT_EQ(groups[2].last, 4u);
  EXPECT_EQ(groups[3].key, 40u);
  EXPECT_EQ(groups[3].first, 6u);
  EXPECT_EQ(groups[3].last, 6u);
  EXPECT_EQ(log[groups[0].last].value, 5u);

  // A prefix sees only its own writes.
  const auto prefix = log.KeyGroups(4);
  ASSERT_EQ(prefix.size(), 3u);
  EXPECT_EQ(prefix[0].key, 10u);
  EXPECT_EQ(prefix[0].last, 3u);
  EXPECT_EQ(prefix[2].key, 30u);
  EXPECT_EQ(prefix[2].last, 0u);

  // A filter drops entries before grouping (Scan's `key >= from`).
  const auto from20 = log.KeyGroups(
      log.published(), [](const Entry& e) { return e.key >= 20; });
  ASSERT_EQ(from20.size(), 3u);
  EXPECT_EQ(from20[0].key, 20u);
  EXPECT_EQ(from20[1].first, 0u);
  EXPECT_EQ(from20[1].last, 4u);

  EXPECT_TRUE(log.KeyGroups(0).empty());
}

TEST(WriteLogTest, StringKeysGroupThroughTheirViews) {
  concurrent::WriteLog<std::string, StringKey> log(4);
  log.Append("b");
  log.Append("a");
  log.Append("c");
  const auto groups = log.KeyGroups(log.published());
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key, "a");
  EXPECT_EQ(groups[1].key, "b");
  EXPECT_EQ(groups[2].key, "c");
  EXPECT_NE(log.FindNewest(log.published(), std::string_view("c")), nullptr);
  EXPECT_EQ(log.FindNewest(log.published(), std::string_view("d")), nullptr);
}

TEST(WriteLogTest, FullAtCapacityTwo) {
  Log log(2);
  EXPECT_EQ(log.capacity(), 2u);
  EXPECT_FALSE(log.FullLocked());
  log.Append({1, 1});
  EXPECT_FALSE(log.FullLocked());
  EXPECT_EQ(log.CountLocked(), 1u);
  log.Append({1, 2});
  EXPECT_TRUE(log.FullLocked());
  EXPECT_EQ(log.CountLocked(), 2u);
  EXPECT_EQ(log.published(), 2u);
  const auto groups = log.KeyGroups(log.published());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].first, 0u);
  EXPECT_EQ(groups[0].last, 1u);
  EXPECT_EQ(log.FindNewest(2, uint64_t{1})->value, 2u);
}

TEST(WriteLogTest, CopyPrefixCarriesTheLiveTail) {
  Log from(4);
  from.Append({3, 30});
  from.Append({1, 10});
  from.Append({2, 20});
  Log to(4);
  to.CopyPrefix(from, 2);
  EXPECT_EQ(to.published(), 2u);
  EXPECT_EQ(to.CountLocked(), 2u);
  EXPECT_EQ(to[0].key, 3u);
  EXPECT_EQ(to[1].value, 10u);
  EXPECT_EQ(to.FindNewest(to.published(), uint64_t{2}), nullptr);
  // The copy keeps appending after the carried entries.
  to.Append({2, 21});
  EXPECT_EQ(to.FindNewest(to.published(), uint64_t{2})->value, 21u);
  EXPECT_EQ(from.published(), 3u);  // the source is untouched

  Log empty(4);
  empty.CopyPrefix(from, 0);
  EXPECT_EQ(empty.published(), 0u);
}

TEST(WriteLogTest, EveryAcquiredPrefixIsFullyWritten) {
  constexpr uint32_t kCap = 1 << 15;
  constexpr int kReaders = 3;
  Log log(kCap);
  // Entry i holds key i + 1 and a value derived from it; a reader that
  // saw a count before the entries below it were written would read a
  // zeroed or torn entry.
  auto value_of = [](uint64_t key) { return key * 0x9E3779B97F4A7C15ULL; };
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint32_t seen = 0;
      while (seen < kCap && !failed.load(std::memory_order_relaxed)) {
        const uint32_t n = log.published();
        EXPECT_GE(n, seen);  // the published count never moves back
        for (const Entry& e : log.Prefix(n).subspan(seen)) {
          const uint64_t want = static_cast<uint64_t>(&e - &log[0]) + 1;
          if (e.key != want || e.value != value_of(want)) {
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        seen = n;
      }
    });
  }
  for (uint64_t i = 0; i < kCap; ++i) log.Append({i + 1, value_of(i + 1)});
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(log.FullLocked());
}

}  // namespace
}  // namespace li
