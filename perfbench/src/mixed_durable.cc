// mixed_durable: the durable, rebalancing range stack over 2M lognormal
// keys (16 MB of keys, fits a 105 MB L3), two clients in closed loops.
//
// The RMI is cache-resident, so the write-log scan, delta rank adjust,
// epoch, merge worker, rebalancer and WAL do most of the work. The WAL
// syncs every 64th record per shard log (fsync_every_n = 64).
//
// Mix per client: 35% Lookup, 30% Contains, 5% LookupBatch of 64 keys,
// 20% Insert of held-out keys, 5% Erase, 5% Scan of 16 keys. Half the
// reads target keys the client inserted recently. The held-out keys are
// packed into a few zipf-weighted regions of the key space, so the shards
// that own them grow and split.
//
// Each client owns half the keys (alternate positions of the base and
// held-out arrays), so its own oracle is exact under concurrency: every
// Contains, Insert, Erase and Scan start is checked inside the loop.
// After the timed phase the stack is quiesced and checked against the
// union of the oracles, dropped, recovered from its directory, and
// checked again: every acknowledged write present, no erased key visible.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "harness.h"
#include "rmi/rmi.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using li::concurrent::ConcurrentWritableIndex;
using li::concurrent::ShardedIndex;
using li::dynamic::DeltaRangeIndex;
using li::rmi::LinearRmi;
using Stack = ShardedIndex<ConcurrentWritableIndex<LinearRmi>>;

constexpr size_t kBaseKeys = 2'000'000;
constexpr size_t kPoolDraws = 2'500'000;
constexpr size_t kRegions = 8;
constexpr double kRegionSkew = 3.0;
constexpr int kClients = 2;
constexpr size_t kBatch = 64;
constexpr size_t kScanLimit = 16;
constexpr size_t kRecent = 4096;
constexpr int kSetupReps = 5;
constexpr int kTraceSlices = 4;
constexpr size_t kSliceSpans = size_t{1} << 19;
constexpr size_t kLadderOps = 100'000;
constexpr size_t kLadderBlock = 4096;
constexpr size_t kFsyncEveryN = 64;
constexpr double kMaxLoadSeconds = 8.0;

/// Base keys plus the held-out pool inserts draw from: keys placed inside
/// base gaps of a few zipf-weighted regions (by base rank), disjoint from
/// the base.
struct Inputs {
  std::vector<uint64_t> base;
  std::vector<uint64_t> pool;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.base = li::data::GenLognormal(kBaseKeys, seed);
  const std::vector<uint64_t>& base = in.base;
  li::Xorshift128Plus rng(seed ^ 0xB00C);
  std::vector<size_t> order(kRegions);
  for (size_t r = 0; r < kRegions; ++r) order[r] = r;
  for (size_t r = kRegions - 1; r > 0; --r) {
    std::swap(order[r], order[rng.NextBounded(r + 1)]);
  }
  li::ZipfGenerator zipf(kRegions, kRegionSkew, seed ^ 0x21FF);
  const size_t span = (base.size() - 1) / kRegions;
  in.pool.reserve(kPoolDraws);
  for (size_t d = 0; d < kPoolDraws; ++d) {
    const size_t i = order[zipf.Next()] * span + rng.NextBounded(span);
    const uint64_t gap = base[i + 1] - base[i];
    if (gap < 2) continue;
    in.pool.push_back(base[i] + 1 + rng.NextBounded(gap - 1));
  }
  std::sort(in.pool.begin(), in.pool.end());
  in.pool.erase(std::unique(in.pool.begin(), in.pool.end()), in.pool.end());
  return in;
}

/// Span names of this workload.
enum Name : uint16_t {
  kOp,
  kStackLookup,
  kStackContains,
  kStackBatch,
  kStackWrite,
  kStackScan,
  kRungRead0,  // LinearRmi, DeltaRangeIndex, ConcurrentWritableIndex,
               // ShardedIndex, durable ShardedIndex: kRungRead0 + r
  kRungWrite0 = kRungRead0 + 5,  // same rungs, writes: kRungWrite0 + r
  kRungPredict = kRungWrite0 + 5,
  kRungBatch,
};

/// Latency samples and counts of one client in one slice.
struct Phase {
  Samples lookup, exists, batch_per_key, write, range;
  uint64_t keys_served = 0;
  uint64_t ops = 0;
};

/// One closed-loop client: the keys it owns, its exact oracle, and the
/// ring of keys it inserted recently.
class Client {
 public:
  Client(const Inputs& in, int id, uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + uint64_t(id) + 1), recent_(kRecent) {
    for (size_t i = size_t(id); i < in.base.size(); i += kClients) {
      keys_.push_back(in.base[i]);
    }
    own_base_ = keys_.size();
    for (size_t i = size_t(id); i < in.pool.size(); i += kClients) {
      keys_.push_back(in.pool[i]);
    }
    live_.assign(keys_.size(), 0);
    std::fill(live_.begin(), live_.begin() + long(own_base_), 1);
  }

  /// Runs until `deadline_ns`; with a tracer each operation is a root span
  /// with a child span around its library call. `load` runs Inserts only.
  void Run(Stack* stack, uint64_t deadline_ns, Tracer* tracer, bool load,
           Phase* ph, Ledger* ledger) {
    std::vector<uint64_t> batch(kBatch);
    std::vector<size_t> out(kBatch);
    uint64_t now = NowNs();
    while (now < deadline_ns && !(tracer && tracer->full())) {
      const uint64_t r = load ? 70 : rng_.NextBounded(100);
      SpanScope root(tracer, kOp);
      if (r < 35) {
        const uint64_t key = keys_[ReadIndex()];
        const uint64_t t0 = NowNs();
        {
          SpanScope s(tracer, kStackLookup, root.id());
          (void)stack->Lookup(key);
        }
        now = NowNs();
        ph->lookup.Add(double(now - t0));
        ph->keys_served += 1;
      } else if (r < 65) {
        const size_t i = ReadIndex();
        const uint64_t t0 = NowNs();
        bool c;
        {
          SpanScope s(tracer, kStackContains, root.id());
          c = stack->Contains(keys_[i]);
        }
        now = NowNs();
        ph->exists.Add(double(now - t0));
        ledger->Expect(c == (live_[i] != 0), "mixed_durable Contains");
        ph->keys_served += 1;
      } else if (r < 70) {
        for (uint64_t& k : batch) k = keys_[ReadIndex()];
        const uint64_t t0 = NowNs();
        {
          SpanScope s(tracer, kStackBatch, root.id());
          stack->LookupBatch(batch, out);
        }
        now = NowNs();
        ph->batch_per_key.Add(double(now - t0) / kBatch);
        ph->keys_served += kBatch;
      } else if (r < 95) {
        // 20 of these 25 are Inserts of held-out keys, 5 are Erases (half
        // of a recent insert, half of a base key).
        const bool erase = r >= 90;
        size_t i;
        if (!erase) {
          i = own_base_ + rng_.NextBounded(keys_.size() - own_base_);
        } else if ((rng_.Next() & 1) && recent_n_ > 0) {
          i = recent_[rng_.NextBounded(std::min(recent_n_, kRecent))];
        } else {
          i = rng_.NextBounded(own_base_);
        }
        const uint64_t t0 = NowNs();
        bool changed;
        {
          SpanScope s(tracer, kStackWrite, root.id());
          changed = erase ? stack->Erase(keys_[i]) : stack->Insert(keys_[i]);
        }
        now = NowNs();
        ph->write.Add(double(now - t0));
        ledger->Expect(changed == (erase ? live_[i] != 0 : live_[i] == 0),
                       erase ? "mixed_durable Erase" : "mixed_durable Insert");
        live_[i] = erase ? 0 : 1;
        if (!erase) recent_[recent_n_++ % kRecent] = uint32_t(i);
        ph->keys_served += 1;
      } else {
        const size_t i = ReadIndex();
        const uint64_t t0 = NowNs();
        std::vector<uint64_t> got;
        {
          SpanScope s(tracer, kStackScan, root.id());
          got = stack->Scan(keys_[i], kScanLimit);
        }
        now = NowNs();
        ph->range.Add(double(now - t0));
        bool ok = got.size() <= kScanLimit &&
                  std::is_sorted(got.begin(), got.end()) &&
                  std::adjacent_find(got.begin(), got.end()) == got.end() &&
                  (got.empty() || got.front() >= keys_[i]) &&
                  (!got.empty() && got.front() == keys_[i]) == (live_[i] != 0);
        ledger->Expect(ok, "mixed_durable Scan");
        ph->keys_served += 1;
      }
      ledger->Attempt();
      ++ph->ops;
    }
  }

  /// Appends the keys this client's oracle holds live.
  void LiveKeys(std::vector<uint64_t>* out) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (live_[i]) out->push_back(keys_[i]);
    }
  }

 private:
  /// Half the reads go to a recently inserted key, half to any own key.
  size_t ReadIndex() {
    if ((rng_.Next() & 1) && recent_n_ > 0) {
      return recent_[rng_.NextBounded(std::min(recent_n_, kRecent))];
    }
    return rng_.NextBounded(keys_.size());
  }

  li::Xorshift128Plus rng_;
  std::vector<uint64_t> keys_;  // own base keys, then own held-out keys
  std::vector<uint8_t> live_;
  size_t own_base_ = 0;
  std::vector<uint32_t> recent_;
  size_t recent_n_ = 0;
};

/// Runs every client on its own thread until `deadline_ns`; per-client
/// tracers when `tracers` is non-null.
void RunClients(std::vector<Client>& clients, Stack* stack, uint64_t deadline_ns,
                std::vector<Tracer>* tracers, std::vector<Phase>* phases,
                Ledger* ledger, bool load = false) {
  phases->assign(clients.size(), Phase{});
  std::vector<Ledger> ledgers(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      clients[c].Run(stack, deadline_ns, tracers ? &(*tracers)[c] : nullptr,
                     load, &(*phases)[c], &ledgers[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Ledger& l : ledgers) ledger->Merge(l);
}

Phase Combine(const std::vector<Phase>& phases) {
  Phase all;
  for (const Phase& p : phases) {
    all.lookup.Append(p.lookup);
    all.exists.Append(p.exists);
    all.batch_per_key.Append(p.batch_per_key);
    all.write.Append(p.write);
    all.range.Append(p.range);
    all.keys_served += p.keys_served;
    all.ops += p.ops;
  }
  return all;
}

li::wal::DurabilityConfig DurCfg(const std::string& dir) {
  li::wal::DurabilityConfig cfg;
  cfg.path = dir;
  cfg.fsync_every_n = kFsyncEveryN;
  return cfg;
}

Stack::Config StackCfg() {
  Stack::Config cfg;
  cfg.num_shards = 8;
  cfg.rebalance.enabled = true;
  return cfg;
}

/// Quiesce-point check: size, the full ordered scan and sampled Lookup
/// ranks against the union of the client oracles.
void CheckAgainstOracle(const Stack& stack, const std::vector<Client>& clients,
                        uint64_t seed, const char* where, Ledger* ledger) {
  std::vector<uint64_t> live;
  for (const Client& c : clients) c.LiveKeys(&live);
  std::sort(live.begin(), live.end());
  ledger->Attempt(3);
  ledger->Expect(stack.size() == live.size(), where);
  ledger->Expect(stack.Scan(0, live.size() + 1) == live, where);
  li::Xorshift128Plus rng(seed ^ 0xC4EC);
  bool ok = true;
  for (int i = 0; i < 100'000 && !live.empty(); ++i) {
    const uint64_t k = live[rng.NextBounded(live.size())] + (rng.Next() & 1);
    const size_t want = size_t(std::lower_bound(live.begin(), live.end(), k) -
                               live.begin());
    ok &= stack.Lookup(k) == want;
  }
  ledger->Expect(ok, where);
}

/// Records in every shard log recovery will scan.
uint64_t CountWalRecords(const std::string& dir, Ledger* ledger) {
  uint64_t records = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".wal") continue;
    auto r = li::wal::Replay(e.path().string(), nullptr);
    if (ledger->ExpectOk(r.status(), "wal Replay")) records += r.value().records;
  }
  return records;
}

/// The ladder: one op sequence replayed single-threaded against each rung
/// (rung 0 takes reads only). Returns nothing; fills `report`.
void RunLadder(const Inputs& in, const Args& args, const Samples& top_read,
               const Samples& top_write, Report* report, Ledger* ledger) {
  struct LOp {
    uint64_t key;
    bool write;
    bool erase;
  };
  std::vector<LOp> ops;
  li::Xorshift128Plus rng(args.seed ^ 0x1ADD);
  std::vector<uint64_t> inserted;
  for (size_t i = 0; i < kLadderOps; ++i) {
    const uint64_t r = rng.NextBounded(100);
    if (r < 70) {
      const bool recent = (rng.Next() & 1) && !inserted.empty();
      ops.push_back({recent ? inserted[rng.NextBounded(inserted.size())]
                            : in.base[rng.NextBounded(in.base.size())],
                     false, false});
    } else if (r < 90) {
      const uint64_t k = in.pool[rng.NextBounded(in.pool.size())];
      inserted.push_back(k);
      ops.push_back({k, true, false});
    } else {
      const bool recent = (rng.Next() & 1) && !inserted.empty();
      ops.push_back({recent ? inserted[rng.NextBounded(inserted.size())]
                            : in.base[rng.NextBounded(in.base.size())],
                     true, true});
    }
  }
  // Rungs below the sharded ones hold all keys in one index: give them
  // the stack's total leaf count, so keys per leaf match each shard.
  const Stack::Config scfg = StackCfg();
  li::rmi::RmiConfig rc;
  rc.num_leaf_models *= scfg.num_shards;
  LinearRmi rmi;
  const uint64_t t0 = NowNs();
  ledger->ExpectOk(rmi.Build(in.base, rc), "ladder rmi Build");
  report->Set("rmi.build_s", double(NowNs() - t0) * 1e-9);
  DeltaRangeIndex<LinearRmi> delta;
  DeltaRangeIndex<LinearRmi>::Config dc;
  dc.base = rc;
  ledger->ExpectOk(delta.Build(in.base, dc), "ladder delta Build");
  ConcurrentWritableIndex<LinearRmi> conc;
  ConcurrentWritableIndex<LinearRmi>::Config cc;
  cc.base = rc;
  ledger->ExpectOk(conc.Build(in.base, cc), "ladder concurrent Build");
  Stack sharded, durable;
  ledger->ExpectOk(sharded.Build(in.base, scfg), "ladder sharded Build");
  ledger->ExpectOk(durable.Build(in.base, scfg), "ladder durable Build");
  const std::string dir = args.work_dir + "/ladder";
  fs::remove_all(dir);
  ledger->ExpectOk(durable.EnableDurability(DurCfg(dir)),
                   "ladder EnableDurability");

  // answers[r][i]: rank for reads, liveness change for writes.
  std::vector<std::vector<size_t>> answers(5, std::vector<size_t>(ops.size()));
  std::vector<li::index::Approx> approx(ops.size());
  Tracer lt(7 * kLadderOps);
  ReplayInterleaved(
      &lt, 6, ops.size(), kLadderBlock,
      [&](size_t r, size_t i) {
        if (r == 5) return ops[i].write ? -1 : int(kRungPredict);
        if (ops[i].write) return r == 0 ? -1 : int(kRungWrite0 + r);
        return int(kRungRead0 + r);
      },
      [&](size_t r, size_t i) {
        const LOp& op = ops[i];
        auto apply = [&](auto& idx) -> size_t {
          if (!op.write) return idx.Lookup(op.key);
          return op.erase ? idx.Erase(op.key) : idx.Insert(op.key);
        };
        switch (r) {
          case 0: answers[0][i] = rmi.Lookup(op.key); break;
          case 1: answers[1][i] = apply(delta); break;
          case 2: answers[2][i] = apply(conc); break;
          case 3: answers[3][i] = apply(sharded); break;
          case 4: answers[4][i] = apply(durable); break;
          default: approx[i] = rmi.ApproxPos(op.key);
        }
      });
  // Window and model error of the reads; the error is defined over the
  // keys the model was built on.
  double width = 0.0, max_err = 0.0;
  size_t reads = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].write) continue;
    ++reads;
    width += double(approx[i].hi - approx[i].lo);
    const size_t rank = answers[0][i];
    if (rank < in.base.size() && in.base[rank] == ops[i].key) {
      max_err = std::max(max_err, std::abs(double(approx[i].pos) - double(rank)));
    }
  }
  bool agree = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t r = 2; r < 5; ++r) agree &= answers[r][i] == answers[1][i];
  }
  ledger->Attempt(4 * ops.size());
  ledger->Expect(agree, "ladder rungs disagree");
  ledger->ExpectOk(durable.wal_status(), "ladder durable wal_status");

  double rd[5], wr[5] = {0, 0, 0, 0, 0};
  for (int r = 0; r < 5; ++r) {
    rd[r] = lt.Durations(uint16_t(kRungRead0 + r)).Median();
    if (r > 0) wr[r] = lt.Durations(uint16_t(kRungWrite0 + r)).Median();
  }
  Samples predict = lt.Durations(kRungPredict);
  report->Set("rmi.predict_ns", predict.Median(), predict.count());
  report->Set("rmi.window_keys", SafeDiv(width, double(reads)), reads);
  report->Set("rmi.max_abs_error", max_err, reads);
  report->Set("search.lastmile_ns", rd[0] - predict.Median());
  report->Set("dynamic.read_self_ns", rd[1] - rd[0]);
  report->Set("concurrent.read_self_ns", rd[2] - rd[1]);
  report->Set("sharded.read_self_ns", rd[3] - rd[2]);
  report->Set("concurrent.write_self_ns", wr[2] - wr[1]);
  report->Set("wal.write_self_ns", wr[4] - wr[3]);
  // Each sum telescopes to the top rung: rung 0 (1 for writes) plus
  // every self time above it.
  report->Set("ladder.read_sum_ns", rd[0] + (rd[1] - rd[0]) + (rd[2] - rd[1]) +
                                        (rd[3] - rd[2]) + (rd[4] - rd[3]));
  report->Set("ladder.write_sum_ns",
              wr[1] + (wr[2] - wr[1]) + (wr[3] - wr[2]) + (wr[4] - wr[3]));
  Samples tr = top_read, tw = top_write;
  report->Set("ladder.read_top_ns", tr.Median(), tr.count());
  report->Set("ladder.write_top_ns", tw.Median(), tw.count());
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "ladder medians (ns) read: rmi %.0f delta %.0f concurrent %.0f "
                "sharded %.0f durable %.0f (in-workload %.0f); write: delta %.0f "
                "concurrent %.0f sharded %.0f durable %.0f (in-workload %.0f)",
                rd[0], rd[1], rd[2], rd[3], rd[4], tr.Median(), wr[1], wr[2],
                wr[3], wr[4], tw.Median());
  report->Note(buf);

  // Standalone SIMD batch path over read keys of the sequence.
  std::vector<uint64_t> bk;
  for (const LOp& op : ops) {
    if (!op.write) bk.push_back(op.key);
  }
  std::vector<size_t> out(kBatch);
  for (size_t off = 0; off + kBatch <= bk.size(); off += kBatch) {
    SpanScope s(&lt, kRungBatch);
    rmi.LookupBatch(std::span<const uint64_t>(&bk[off], kBatch), out);
  }
  Samples batch = lt.Durations(kRungBatch);
  report->Set("simd.batch_ns_per_key", batch.Median() / kBatch, batch.count());
  fs::remove_all(dir);
}

}  // namespace

void RunMixedDurable(const Args& args, Report* report, Ledger* ledger) {
  const Inputs in = MakeInputs(args.seed);
  const std::string dir = args.work_dir + "/mixed_durable";

  // Set-up: inputs in memory -> a ready durable stack, including the
  // checkpoint EnableDurability takes; repeated, the last one is kept.
  std::unique_ptr<Stack> stack;
  std::vector<double> setups, checkpoints;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    fs::remove_all(dir);
    const uint64_t t0 = NowNs();
    auto s = std::make_unique<Stack>();
    ledger->ExpectOk(s->Build(in.base, StackCfg()), "mixed_durable Build");
    const uint64_t t1 = NowNs();
    ledger->ExpectOk(s->EnableDurability(DurCfg(dir)),
                     "mixed_durable EnableDurability");
    const uint64_t t2 = NowNs();
    setups.push_back(double(t2 - t0) * 1e-9);
    checkpoints.push_back(double(t2 - t1) * 1e-9);
    stack = std::move(s);
  }

  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(in, c, args.seed);
  std::vector<Phase> phases;

  // Warm-up: a load phase of Inserts only (the skewed held-out keys) until
  // the first shard split, bounded; then the mix until merges have run.
  const uint64_t load_end = NowNs() + uint64_t(kMaxLoadSeconds * 1e9);
  uint64_t t_warm = NowNs();
  while (stack->ConcurrentStats().shard_splits == 0 && NowNs() < load_end) {
    RunClients(clients, stack.get(), NowNs() + 100'000'000, nullptr, &phases,
               ledger, /*load=*/true);
  }
  const double load_s = double(NowNs() - t_warm) * 1e-9;
  t_warm = NowNs();
  RunClients(clients, stack.get(),
             t_warm + uint64_t(std::max(1.0, 0.1 * args.seconds) * 1e9), nullptr,
             &phases, ledger);
  {
    const li::index::ConcurrentIndexStats cs = stack->ConcurrentStats();
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "load %.2f s + mixed warm-up %.2f s: merges %llu, splits %llu, "
                  "shards %zu, live keys %zu",
                  load_s, double(NowNs() - t_warm) * 1e-9,
                  (unsigned long long)cs.merges,
                  (unsigned long long)cs.shard_splits, stack->num_shards(),
                  stack->size());
    report->Note(buf);
  }

  if (!args.trace) {
    SliceSummary m;
    const uint64_t slice = uint64_t(args.seconds * 1e9 / kSlices);
    for (int i = 0; i < kSlices; ++i) {
      const uint64_t t0 = NowNs();
      RunClients(clients, stack.get(), t0 + slice, nullptr, &phases, ledger);
      const double el = double(NowNs() - t0) * 1e-9;
      Phase ph = Combine(phases);
      m.Add("throughput_ops_s", SafeDiv(ph.keys_served, el), ph.ops);
      m.Add("lookup_p50_ns", ph.lookup.Quantile(0.5), ph.lookup.count());
      m.Add("lookup_p99_ns", ph.lookup.Quantile(0.99), ph.lookup.count());
      m.Add("batch_lookup_ns_per_key", ph.batch_per_key.Median(),
            ph.batch_per_key.count());
      m.Add("exists_p50_ns", ph.exists.Quantile(0.5), ph.exists.count());
      m.Add("exists_p99_ns", ph.exists.Quantile(0.99), ph.exists.count());
      m.Add("bytes_per_key",
            SafeDiv(double(stack->SizeBytes()), double(stack->size())), 1);
    }
    m.ReportTo(report);
    report->Set("setup_s", MedianOf(setups), setups.size());
  } else {
    // Untraced and traced slices alternate; the sampler thread reads the
    // write-log and delta gauges every millisecond meanwhile.
    Phase plain, traced;
    double plain_s = 0.0, traced_s = 0.0;
    Samples top_read, top_write, scan;
    std::atomic<bool> stop{false};
    Samples log_at, delta_at;
    std::thread sampler([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const li::index::ConcurrentIndexStats cs = stack->ConcurrentStats();
        log_at.Add(double(cs.log_entries));
        delta_at.Add(double(cs.delta_entries));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const uint64_t slice = uint64_t(args.seconds * 1e9 / (2 * kTraceSlices));
    for (int r = 0; r < kTraceSlices; ++r) {
      uint64_t t0 = NowNs();
      RunClients(clients, stack.get(), t0 + slice, nullptr, &phases, ledger);
      plain_s += double(NowNs() - t0) * 1e-9;
      const Phase p = Combine(phases);
      plain.lookup.Append(p.lookup);
      plain.write.Append(p.write);
      plain.range.Append(p.range);
      plain.keys_served += p.keys_served;
      plain.ops += p.ops;
      std::vector<Tracer> tracers;
      for (int c = 0; c < kClients; ++c) tracers.emplace_back(kSliceSpans);
      t0 = NowNs();
      RunClients(clients, stack.get(), t0 + slice, &tracers, &phases, ledger);
      traced_s += double(NowNs() - t0) * 1e-9;
      const Phase q = Combine(phases);
      traced.keys_served += q.keys_served;
      traced.ops += q.ops;
      for (const Tracer& t : tracers) {
        top_read.Append(t.Durations(kStackLookup));
        top_write.Append(t.Durations(kStackWrite));
        scan.Append(t.Durations(kStackScan));
      }
    }
    stop = true;
    sampler.join();
    const double u = SafeDiv(plain.keys_served, plain_s);
    const double t = SafeDiv(traced.keys_served, traced_s);
    report->Set("trace.untraced_ops_s", u, plain.ops);
    report->Set("trace.traced_ops_s", t, traced.ops);
    report->Set("trace.overhead_share", SafeDiv(u, t) - 1.0);
    report->Set("range_p50_ns", plain.range.Quantile(0.5), plain.range.count());
    report->Set("range_p99_ns", plain.range.Quantile(0.99), plain.range.count());
    report->Set("write_p50_ns", plain.write.Quantile(0.5), plain.write.count());
    report->Set("write_p99_ns", plain.write.Quantile(0.99), plain.write.count());
    report->Set("sharded.scan_ns", scan.Median(), scan.count());
    report->Set("concurrent.log_entries_at_read", log_at.Mean(), log_at.count());
    report->Set("dynamic.delta_entries_at_read", delta_at.Mean(),
                delta_at.count());
    report->Set("snapshot.checkpoint_s", MedianOf(checkpoints),
                checkpoints.size());

    // Counters of the live shards since they were built (a split or
    // coalesce retires the old shards' counters with them).
    const li::index::ConcurrentIndexStats cs = stack->ConcurrentStats();
    const double writes = double(cs.inserts + cs.erases);
    report->Set("dynamic.delta_hit_rate", cs.DeltaHitRate(), cs.contains);
    report->Set("dynamic.merges", double(cs.merges));
    report->Set("dynamic.merge_busy_s", cs.total_merge_ns * 1e-9);
    report->Set("dynamic.merged_keys_per_write",
                SafeDiv(double(cs.merged_keys), writes));
    report->Set("concurrent.freezes", double(cs.freezes));
    report->Set("concurrent.writer_contended_share", cs.WriterContentionRate());
    report->Set("concurrent.reclaim_lag",
                double(cs.states_retired - cs.states_reclaimed));
    report->Set("sharded.splits", double(cs.shard_splits));
    report->Set("sharded.coalesces", double(cs.shard_coalesces));
    report->Set("sharded.imbalance_final", stack->CurrentImbalance());
    const li::wal::WalStats ws = stack->DurabilityStats();
    report->Set("wal.syncs_per_write", SafeDiv(double(ws.syncs), double(ws.appends)));
    report->Set("wal.bytes_per_write",
                SafeDiv(double(ws.bytes_appended), double(ws.appends)));
    RunLadder(in, args, top_read, top_write, report, ledger);
  }

  // Quiesce, check, drop, recover, check again.
  stack->WaitForMerges();
  stack->WaitForRebalances();
  ledger->ExpectOk(stack->last_rebalance_status(), "mixed_durable rebalance");
  ledger->ExpectOk(stack->wal_status(), "mixed_durable wal_status");
  CheckAgainstOracle(*stack, clients, args.seed, "mixed_durable quiesced state",
                     ledger);
  ledger->ExpectOk(stack->SyncWal(), "mixed_durable SyncWal");
  stack.reset();
  const uint64_t replayable = CountWalRecords(dir, ledger);
  {
    const uint64_t t0 = NowNs();
    auto recovered = Stack::RecoverDurable(DurCfg(dir));
    const double recover_s = double(NowNs() - t0) * 1e-9;
    if (ledger->ExpectOk(recovered.status(), "mixed_durable RecoverDurable")) {
      CheckAgainstOracle(recovered.value(), clients, args.seed,
                         "mixed_durable recovered state", ledger);
    }
    if (args.trace) {
      report->Set("recover_s", recover_s);
      report->Set("wal.replay_records", double(replayable));
    }
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
