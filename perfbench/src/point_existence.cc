// point_existence: the paper's §4 (learned hash map) and §5 (existence
// filter) layers behind their concurrent write paths, one client in a
// closed loop. No range stack runs.
//
// Set-up: ConcurrentPointIndex<ChainedHashMap> with the learned-CDF hash
// over 4M lognormal-keyed records (about 100 MB of table with records),
// and RebuildableExistence<BloomFilter> (plain Bloom at a 1% target) over
// 1M GenDocIds strings.
//
// Mix: 50% Find, 15% FindBatch of 64 keys, 10% Upsert/Insert, 5% Erase,
// 20% existence probes (MightContain over keys and non-keys; 1 in 10 is
// an Insert of a new document id). A flat oracle (liveness and payload
// per key, presence per document id) checks every answer inside the loop
// and the whole state after the timed phase; the filter must never
// answer "absent" for a present id.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "concurrent/concurrent_point_index.h"
#include "concurrent/rebuildable_existence.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "harness.h"
#include "hash/chained_hash_map.h"
#include "hash/record.h"

namespace perfbench {
namespace {

using li::bloom::BloomFilter;
using li::concurrent::ConcurrentPointIndex;
using li::concurrent::RebuildableExistence;
using li::hash::ChainedHashMap;
using li::hash::Record;
using PointIdx = ConcurrentPointIndex<ChainedHashMap>;
using Exist = RebuildableExistence<BloomFilter>;

constexpr size_t kRecords = 4'000'000;
constexpr size_t kHeldOutRecords = 1'000'000;
constexpr size_t kCorpus = 1'000'000;
constexpr size_t kHeldOutDocs = 200'000;
constexpr size_t kNonKeys = 200'000;
constexpr size_t kBatch = 64;
constexpr int kSetupReps = 3;
constexpr int kTraceSlices = 4;
constexpr size_t kSliceSpans = size_t{1} << 20;
constexpr size_t kLadderOps = 200'000;
constexpr size_t kLadderBlock = 4096;
constexpr double kTargetFpr = 0.01;

uint64_t PayloadOf(uint64_t key) { return li::Murmur3Fmix64(key ^ 0xFEED); }

/// Record keys (base first, then held-out, each sorted) and document ids
/// (corpus, then held-out ids to insert, then non-keys never inserted).
struct Inputs {
  std::vector<uint64_t> keys;
  std::vector<Record> base;
  std::vector<std::string> docs;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  std::vector<uint64_t> all =
      li::data::GenLognormal(kRecords + kHeldOutRecords, seed);
  li::Xorshift128Plus rng(seed ^ 0x9E37);
  for (size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.NextBounded(i + 1)]);
  }
  std::sort(all.begin(), all.begin() + long(kRecords));
  std::sort(all.begin() + long(kRecords), all.end());
  in.keys = std::move(all);
  in.base.reserve(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    in.base.push_back(Record{in.keys[i], PayloadOf(in.keys[i]), 0});
  }
  in.docs = li::data::GenDocIds(kCorpus + kHeldOutDocs + kNonKeys, seed);
  std::sort(in.docs.begin(), in.docs.end());
  in.docs.erase(std::unique(in.docs.begin(), in.docs.end()), in.docs.end());
  for (size_t i = in.docs.size() - 1; i > 0; --i) {
    std::swap(in.docs[i], in.docs[rng.NextBounded(i + 1)]);
  }
  return in;
}

enum Name : uint16_t {
  kOp,
  kFind,
  kFindBatch,
  kWrite,
  kExists,
  kRungHash,        // ChainedHashMap::Find (standalone)
  kRungPoint,       // ConcurrentPointIndex::Find
  kRungHashBatch,   // ChainedHashMap::FindBatch (standalone)
  kRungBloom,       // BloomFilter::MightContain (standalone)
  kRungExistence,   // RebuildableExistence::MightContain
};

struct Phase {
  Samples lookup, batch_per_key, write, exists;
  uint64_t keys_served = 0;
  uint64_t ops = 0;
  uint64_t non_key_probes = 0, false_positives = 0;
  double elapsed_s = 0.0;
};

/// The single client with its oracle.
class Client {
 public:
  Client(const Inputs& in, uint64_t seed)
      : in_(in), rng_(seed ^ 0xC11E), live_(in.keys.size(), 0),
        payload_(in.keys.size(), 0), present_(in.docs.size(), 0) {
    for (size_t i = 0; i < kRecords; ++i) {
      live_[i] = 1;
      payload_[i] = in.base[i].payload;
    }
    const size_t corpus = std::min(kCorpus, in.docs.size());
    std::fill(present_.begin(), present_.begin() + long(corpus), 1);
    held_docs_ = std::min(in.docs.size(), kCorpus + kHeldOutDocs);
    next_doc_ = corpus;
  }

  void Run(PointIdx* point, Exist* exist, uint64_t deadline_ns, Tracer* tracer,
           Phase* ph, Ledger* ledger) {
    std::vector<uint64_t> bkeys(kBatch);
    std::vector<size_t> bidx(kBatch);
    std::vector<Record> recs(kBatch);
    std::vector<uint8_t> found(kBatch);
    const uint64_t start = NowNs();
    uint64_t now = start;
    const size_t n = in_.keys.size();
    while (now < deadline_ns && !(tracer && tracer->full())) {
      const uint64_t r = rng_.NextBounded(100);
      SpanScope root(tracer, kOp);
      if (r < 50) {
        const size_t u = rng_.NextBounded(n);
        Record rec;
        const uint64_t t0 = NowNs();
        bool f;
        {
          SpanScope s(tracer, kFind, root.id());
          f = point->Find(in_.keys[u], &rec);
        }
        now = NowNs();
        ph->lookup.Add(double(now - t0));
        ledger->Expect(f == (live_[u] != 0) && (!f || rec.payload == payload_[u]),
                       "point_existence Find");
        ph->keys_served += 1;
      } else if (r < 65) {
        for (size_t j = 0; j < kBatch; ++j) {
          bidx[j] = rng_.NextBounded(n);
          bkeys[j] = in_.keys[bidx[j]];
        }
        const uint64_t t0 = NowNs();
        {
          SpanScope s(tracer, kFindBatch, root.id());
          point->FindBatch(bkeys, recs, found);
        }
        now = NowNs();
        ph->batch_per_key.Add(double(now - t0) / kBatch);
        bool ok = true;
        for (size_t j = 0; j < kBatch; ++j) {
          const size_t u = bidx[j];
          ok &= (found[j] != 0) == (live_[u] != 0) &&
                (!found[j] || recs[j].payload == payload_[u]);
        }
        ledger->Expect(ok, "point_existence FindBatch");
        ph->keys_served += kBatch;
      } else if (r < 80) {
        // 10 of these 15 are Upserts or Inserts (half each), 5 Erases.
        const size_t u = rng_.NextBounded(n);
        const int kind = r < 70 ? 0 : (r < 75 ? 1 : 2);  // upsert/insert/erase
        const Record rec{in_.keys[u], rng_.Next(), 0};
        const uint64_t t0 = NowNs();
        bool changed;
        {
          SpanScope s(tracer, kWrite, root.id());
          changed = kind == 0   ? point->Upsert(rec)
                    : kind == 1 ? point->Insert(rec)
                                : point->Erase(rec.key);
        }
        now = NowNs();
        ph->write.Add(double(now - t0));
        ledger->Expect(changed == (kind == 2 ? live_[u] != 0 : live_[u] == 0),
                       "point_existence write");
        if (kind == 2) {
          live_[u] = 0;
        } else if (kind == 0 || !live_[u]) {
          live_[u] = 1;
          payload_[u] = rec.payload;
        }
        ph->keys_served += 1;
      } else if (rng_.NextBounded(10) == 0 && next_doc_ < held_docs_) {
        const size_t d = next_doc_++;
        const uint64_t t0 = NowNs();
        bool added;
        {
          SpanScope s(tracer, kWrite, root.id());
          added = exist->Insert(in_.docs[d]);
        }
        now = NowNs();
        ph->write.Add(double(now - t0));
        ledger->Expect(added, "point_existence existence Insert");
        present_[d] = 1;
        ph->keys_served += 1;
      } else {
        // Half the probes ask for a present id, half for a non-key.
        const bool key = rng_.Next() & 1;
        const size_t d = key ? rng_.NextBounded(next_doc_)
                             : held_docs_ + rng_.NextBounded(in_.docs.size() -
                                                             held_docs_);
        const uint64_t t0 = NowNs();
        bool maybe;
        {
          SpanScope s(tracer, kExists, root.id());
          maybe = exist->MightContain(in_.docs[d]);
        }
        now = NowNs();
        ph->exists.Add(double(now - t0));
        if (present_[d]) {
          ledger->Expect(maybe, "point_existence filter false negative");
        } else {
          ++ph->non_key_probes;
          ph->false_positives += maybe;
        }
        ph->keys_served += 1;
      }
      ledger->Attempt();
      ++ph->ops;
    }
    ph->elapsed_s += double(now - start) * 1e-9;
  }

  /// Whole-state check at a quiesce point.
  void Check(const PointIdx& point, const Exist& exist, Ledger* ledger) const {
    size_t live = 0;
    bool ok = true;
    Record rec;
    for (size_t u = 0; u < in_.keys.size(); ++u) {
      live += live_[u];
      const bool f = point.Find(in_.keys[u], &rec);
      ok &= f == (live_[u] != 0) && (!f || rec.payload == payload_[u]);
    }
    ledger->Attempt(in_.keys.size());
    ledger->Expect(ok, "point_existence quiesced Find");
    ledger->Expect(point.num_records() == live, "point_existence num_records");
    size_t present = 0;
    bool no_fn = true;
    for (size_t d = 0; d < in_.docs.size(); ++d) {
      if (!present_[d]) continue;
      ++present;
      no_fn &= exist.MightContain(in_.docs[d]);
    }
    ledger->Attempt(present);
    ledger->Expect(no_fn, "point_existence quiesced filter false negative");
    ledger->Expect(exist.num_keys() == present, "point_existence num_keys");
  }

  /// Live records and present ids, for the standalone rungs.
  std::vector<Record> LiveRecords() const {
    std::vector<Record> out;
    for (size_t u = 0; u < in_.keys.size(); ++u) {
      if (live_[u]) out.push_back(Record{in_.keys[u], payload_[u], 0});
    }
    return out;
  }
  std::vector<std::string> PresentDocs() const {
    std::vector<std::string> out;
    for (size_t d = 0; d < in_.docs.size(); ++d) {
      if (present_[d]) out.push_back(in_.docs[d]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  size_t held_docs() const { return held_docs_; }

 private:
  const Inputs& in_;
  li::Xorshift128Plus rng_;
  std::vector<uint8_t> live_;
  std::vector<uint64_t> payload_;
  std::vector<uint8_t> present_;
  size_t held_docs_ = 0;
  size_t next_doc_ = 0;
};

PointIdx::Config PointCfg() {
  PointIdx::Config cfg;
  cfg.base.hash.kind = li::hash::HashKind::kLearnedCdf;
  return cfg;
}

Exist::Config ExistCfg() {
  Exist::Config cfg;
  cfg.rebuild = li::concurrent::PlainBloomRebuilder(kTargetFpr);
  return cfg;
}

/// Standalone rungs under the workload's layers: a static ChainedHashMap
/// (same config) over the live records under ConcurrentPointIndex, and a
/// plain Bloom filter over the present ids under RebuildableExistence.
void RunLadder(const Inputs& in, const Client& client, const PointIdx& point,
               const Exist& exist, uint64_t seed, const Samples& top_find,
               Report* report, Ledger* ledger) {
  const std::vector<Record> live = client.LiveRecords();
  ChainedHashMap map;
  ledger->ExpectOk(map.Build(live, PointCfg().base), "ladder ChainedHashMap Build");
  const std::vector<std::string> docs = client.PresentDocs();
  BloomFilter bloom;
  ledger->ExpectOk(ExistCfg().rebuild(docs, &bloom), "ladder Bloom build");

  li::Xorshift128Plus rng(seed ^ 0x1ADD);
  std::vector<uint64_t> keys(kLadderOps);
  for (uint64_t& k : keys) k = in.keys[rng.NextBounded(in.keys.size())];
  std::vector<const std::string*> probes(kLadderOps);
  std::vector<uint8_t> is_key(kLadderOps);
  for (size_t i = 0; i < kLadderOps; ++i) {
    is_key[i] = rng.Next() & 1;
    probes[i] = is_key[i] ? &docs[rng.NextBounded(docs.size())]
                          : &in.docs[client.held_docs() +
                                     rng.NextBounded(in.docs.size() -
                                                     client.held_docs())];
  }
  Tracer lt(5 * kLadderOps);
  std::vector<const Record*> from_map(kLadderOps);
  std::vector<Record> from_point(kLadderOps);
  std::vector<uint8_t> point_found(kLadderOps), bloom_says(kLadderOps),
      exist_says(kLadderOps);
  ReplayInterleaved(
      &lt, 4, kLadderOps, kLadderBlock,
      [](size_t r, size_t) { return int(kRungHash + (r < 2 ? r : r + 1)); },
      [&](size_t r, size_t i) {
        switch (r) {
          case 0: from_map[i] = map.Find(keys[i]); break;
          case 1: point_found[i] = point.Find(keys[i], &from_point[i]); break;
          case 2: bloom_says[i] = bloom.MightContain(*probes[i]); break;
          default: exist_says[i] = exist.MightContain(*probes[i]);
        }
      });
  bool agree = true;
  for (size_t i = 0; i < kLadderOps; ++i) {
    agree &= (from_map[i] != nullptr) == (point_found[i] != 0) &&
             (from_map[i] == nullptr || from_map[i]->payload == from_point[i].payload);
    agree &= !is_key[i] || (bloom_says[i] && exist_says[i]);
  }
  std::vector<const Record*> out(kBatch);
  for (size_t off = 0; off + kBatch <= keys.size(); off += kBatch) {
    SpanScope s(&lt, kRungHashBatch);
    map.FindBatch(std::span<const uint64_t>(&keys[off], kBatch), out);
  }
  const double hash = lt.Durations(kRungHash).Median();
  const double conc = lt.Durations(kRungPoint).Median();
  const double bl = lt.Durations(kRungBloom).Median();
  const double ex = lt.Durations(kRungExistence).Median();
  Samples batch = lt.Durations(kRungHashBatch);
  report->Set("hash.find_ns", hash, kLadderOps);
  report->Set("hash.findbatch_ns_per_key", batch.Median() / kBatch, batch.count());
  report->Set("concurrent_point.find_self_ns", conc - hash, kLadderOps);
  report->Set("bloom.probe_ns", bl, kLadderOps);
  report->Set("existence.self_ns", ex - bl, kLadderOps);
  report->Set("ladder.read_sum_ns", hash + (conc - hash));
  Samples tf = top_find;
  report->Set("ladder.read_top_ns", tf.Median(), tf.count());
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "ladder medians (ns): hash %.0f concurrent_point %.0f "
                "(in-workload Find %.0f); bloom %.0f existence %.0f",
                hash, conc, tf.Median(), bl, ex);
  report->Note(buf);
}

}  // namespace

void RunPointExistence(const Args& args, Report* report, Ledger* ledger) {
  const Inputs in = MakeInputs(args.seed);
  const std::vector<std::string> corpus(
      in.docs.begin(), in.docs.begin() + long(std::min(kCorpus, in.docs.size())));

  std::unique_ptr<PointIdx> point;
  std::unique_ptr<Exist> exist;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    point.reset();
    exist.reset();
    const uint64_t t0 = NowNs();
    auto p = std::make_unique<PointIdx>();
    ledger->ExpectOk(p->Build(in.base, PointCfg()), "point Build");
    auto e = std::make_unique<Exist>();
    ledger->ExpectOk(e->Build(corpus, ExistCfg()), "existence Build");
    setups.push_back(double(NowNs() - t0) * 1e-9);
    point = std::move(p);
    exist = std::move(e);
  }

  Client client(in, args.seed);
  {
    Phase warm;
    client.Run(point.get(), exist.get(),
               NowNs() + uint64_t(std::min(1.0, 0.1 * args.seconds) * 1e9),
               nullptr, &warm, ledger);
  }
  uint64_t non_key_probes = 0, false_positives = 0;
  if (!args.trace) {
    SliceSummary m;
    const uint64_t slice = uint64_t(args.seconds * 1e9 / kSlices);
    for (int i = 0; i < kSlices; ++i) {
      Phase ph;
      client.Run(point.get(), exist.get(), NowNs() + slice, nullptr, &ph, ledger);
      m.Add("throughput_ops_s", SafeDiv(ph.keys_served, ph.elapsed_s), ph.ops);
      m.Add("lookup_p50_ns", ph.lookup.Quantile(0.5), ph.lookup.count());
      m.Add("lookup_p99_ns", ph.lookup.Quantile(0.99), ph.lookup.count());
      m.Add("batch_lookup_ns_per_key", ph.batch_per_key.Median(),
            ph.batch_per_key.count());
      m.Add("exists_p50_ns", ph.exists.Quantile(0.5), ph.exists.count());
      m.Add("exists_p99_ns", ph.exists.Quantile(0.99), ph.exists.count());
      m.Add("bytes_per_key",
            SafeDiv(double(point->SizeBytes() + exist->SizeBytes()),
                    double(point->num_records() + exist->num_keys())), 1);
    }
    m.ReportTo(report);
    report->Set("setup_s", MedianOf(setups), setups.size());
  } else {
    Phase plain, traced;
    Samples top_find;
    std::atomic<bool> stop{false};
    Samples log_at;
    std::thread sampler([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        log_at.Add(double(point->ConcurrentStats().log_entries));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const uint64_t slice = uint64_t(args.seconds * 1e9 / (2 * kTraceSlices));
    for (int r = 0; r < kTraceSlices; ++r) {
      client.Run(point.get(), exist.get(), NowNs() + slice, nullptr, &plain,
                 ledger);
      Tracer tracer(kSliceSpans);
      client.Run(point.get(), exist.get(), NowNs() + slice, &tracer, &traced,
                 ledger);
      top_find.Append(tracer.Durations(kFind));
    }
    stop = true;
    sampler.join();
    const double u = SafeDiv(plain.keys_served, plain.elapsed_s);
    const double t = SafeDiv(traced.keys_served, traced.elapsed_s);
    report->Set("trace.untraced_ops_s", u, plain.ops);
    report->Set("trace.traced_ops_s", t, traced.ops);
    report->Set("trace.overhead_share", SafeDiv(u, t) - 1.0);
    report->Set("write_p50_ns", plain.write.Quantile(0.5), plain.write.count());
    report->Set("write_p99_ns", plain.write.Quantile(0.99), plain.write.count());
    non_key_probes = plain.non_key_probes + traced.non_key_probes;
    false_positives = plain.false_positives + traced.false_positives;
    report->Set("existence.fpr", SafeDiv(false_positives, non_key_probes),
                non_key_probes);
    report->Set("concurrent_point.log_entries_at_read", log_at.Mean(),
                log_at.count());
    const li::index::ConcurrentIndexStats ps = point->ConcurrentStats();
    report->Set("concurrent_point.rebuilds", double(ps.merges));
    report->Set("concurrent_point.freezes", double(ps.freezes));
    const li::index::PointIndexStats hs = point->Stats();
    report->Set("hash.mean_probe", hs.mean_probe);
    report->Set("hash.utilization", hs.utilization());
    report->Set("existence.rebuilds", double(exist->ConcurrentStats().merges));
    // The ladder reads the state the workload left (write log and overlay
    // included); the standalone rungs hold the same live set.
    RunLadder(in, client, *point, *exist, args.seed, top_find, report, ledger);
  }

  point->WaitForRebuilds();
  exist->WaitForRebuilds();
  ledger->ExpectOk(point->last_rebuild_status(), "point rebuild status");
  ledger->ExpectOk(exist->last_rebuild_status(), "existence rebuild status");
  client.Check(*point, *exist, ledger);
}

}  // namespace perfbench
