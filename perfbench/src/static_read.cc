// static_read: the read-only range stack over 20M lognormal keys (160 MB
// of keys, above a 105 MB L3), one client in a closed loop.
//
// The model, last-mile search, SIMD batch, shard routing and range-filter
// layers do all the work, out of cache; the write log, delta, merge and
// WAL stay idle, so a write-path change should not move this workload.
//
// Mix: 50% Lookup, 10% Contains, 20% LookupBatch of 64 keys, 20% range
// queries (MightContainRange, then Scan only if the filter says maybe;
// half the ranges are guaranteed empty). Every answer is checked against
// expectations computed from the sorted key array before timing starts.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "dynamic/delta_range_index.h"
#include "harness.h"
#include "rangefilter/learned_range_filter.h"
#include "rangefilter/workload.h"
#include "rmi/rmi.h"

namespace perfbench {
namespace {

using li::concurrent::ConcurrentWritableIndex;
using li::concurrent::ShardedIndex;
using li::dynamic::DeltaRangeIndex;
using li::rmi::LinearRmi;
using Stack = ShardedIndex<ConcurrentWritableIndex<LinearRmi>>;

constexpr size_t kKeys = 20'000'000;
constexpr size_t kStreamOps = size_t{1} << 21;
constexpr size_t kBatch = 64;
constexpr size_t kScanLimit = 16;
constexpr size_t kRanges = 1 << 17;  // per shape (empty / non-empty)
constexpr int kSetupReps = 3;
constexpr size_t kLadderOps = 200'000;
constexpr size_t kLadderBlock = 4096;
constexpr int kTraceSlices = 4;
constexpr size_t kSliceSpans = size_t{1} << 20;
constexpr size_t kBatchPool = size_t{1} << 14;  // distinct 64-key batches

enum Kind : uint8_t { kLookup, kContains, kBatchLookup, kRange };

/// One operation of the pregenerated stream with its expected answer.
/// kLookup: a = key, expect = rank. kContains: a = key, expect = 0/1.
/// kBatchLookup: a = offset of its batch in the batch pool. kRange: [a, b),
/// expect = rank of a; `nonempty` says whether a key lies in [a, b).
struct Op {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t expect = 0;
  Kind kind = kLookup;
  bool nonempty = false;
};

struct Inputs {
  std::vector<uint64_t> keys;
  std::vector<Op> ops;
  std::vector<uint64_t> batch_keys;
  std::vector<size_t> batch_expect;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.keys = li::data::GenLognormal(kKeys, seed);
  const std::vector<uint64_t>& keys = in.keys;
  const size_t n = keys.size();
  li::rangefilter::EmptyQueryConfig eq;
  eq.count = kRanges;
  const auto empty = li::rangefilter::GenEmptyRanges(keys, seed ^ 0xE1, eq);
  const auto witness =
      li::rangefilter::GenWitnessRanges(keys, seed ^ 0xE2, kRanges);
  li::Xorshift128Plus rng(seed ^ 0x5151);
  for (size_t j = 0; j < kBatchPool * kBatch; ++j) {
    const size_t i = rng.NextBounded(n);
    in.batch_keys.push_back(keys[i]);
    in.batch_expect.push_back(i);
  }
  in.ops.resize(kStreamOps);
  for (Op& op : in.ops) {
    const uint64_t r = rng.NextBounded(100);
    if (r < 50) {
      const size_t i = rng.NextBounded(n);
      op = Op{keys[i], 0, i, kLookup, false};
    } else if (r < 60) {
      const size_t i = rng.NextBounded(n);
      const uint64_t k = (rng.Next() & 1) ? keys[i] : keys[i] + 1;
      op = Op{k, 0, std::binary_search(keys.begin(), keys.end(), k), kContains,
              false};
    } else if (r < 80) {
      op = Op{rng.NextBounded(kBatchPool) * kBatch, 0, 0, kBatchLookup, false};
    } else {
      const bool want_empty = rng.Next() & 1;
      const auto& pool = want_empty ? empty : witness;
      const li::index::RangeQuery q = pool[rng.NextBounded(pool.size())];
      const size_t rank = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), q.lo) - keys.begin());
      op = Op{q.lo, q.hi, rank, kRange, rank < n && keys[rank] < q.hi};
    }
  }
  return in;
}

/// Span names of this workload.
enum Name : uint16_t {
  kOpLookup,
  kOpContains,
  kOpBatch,
  kOpRange,
  kStackLookup,
  kFilterProbe,
  kStackScan,
  kRungBatch,
  kRung0,        // LinearRmi::Lookup
  kRung1,        // DeltaRangeIndex<LinearRmi>::Lookup
  kRung2,        // ConcurrentWritableIndex<LinearRmi>::Lookup
  kRung3,        // the stack's ShardedIndex::Lookup
  kRungPredict,  // LinearRmi::ApproxPos
};

struct Built {
  std::unique_ptr<Stack> stack;
  li::rangefilter::LearnedRangeFilter filter;
};

/// Latency samples and outcome counts of one timed phase.
struct Phase {
  Samples lookup, exists, batch_per_key, range;
  uint64_t keys_served = 0;
  uint64_t ops = 0;
  double elapsed_s = 0.0;
  uint64_t range_probes = 0, range_skipped = 0, empty_probes = 0,
           false_positives = 0;
};

/// Runs the closed loop over the op stream from `*cursor` until
/// `deadline_ns` (or until the tracer fills). With a tracer every
/// operation is a root span with one child span per library call.
void RunPhase(const Inputs& in, const Built& b, uint64_t deadline_ns,
              Tracer* tracer, size_t* cursor, Phase* ph, Ledger* ledger) {
  const Stack& stack = *b.stack;
  const size_t n = in.keys.size();
  std::vector<size_t> out(kBatch);
  const uint64_t start = NowNs();
  uint64_t now = start;
  while (now < deadline_ns && !(tracer && tracer->full())) {
    const Op& op = in.ops[*cursor];
    *cursor = (*cursor + 1) % in.ops.size();
    const uint64_t t0 = NowNs();
    switch (op.kind) {
      case kLookup: {
        SpanScope root(tracer, kOpLookup);
        size_t rank;
        {
          SpanScope s(tracer, kStackLookup, root.id());
          rank = stack.Lookup(op.a);
        }
        now = NowNs();
        ph->lookup.Add(static_cast<double>(now - t0));
        ledger->Expect(rank == op.expect, "static_read Lookup rank");
        ph->keys_served += 1;
        break;
      }
      case kContains: {
        SpanScope root(tracer, kOpContains);
        const bool c = stack.Contains(op.a);
        now = NowNs();
        ph->exists.Add(static_cast<double>(now - t0));
        ledger->Expect(c == (op.expect != 0), "static_read Contains");
        ph->keys_served += 1;
        break;
      }
      case kBatchLookup: {
        SpanScope root(tracer, kOpBatch);
        stack.LookupBatch(std::span<const uint64_t>(&in.batch_keys[op.a], kBatch),
                          std::span<size_t>(out));
        now = NowNs();
        ph->batch_per_key.Add(static_cast<double>(now - t0) / kBatch);
        bool ok = true;
        for (size_t j = 0; j < kBatch; ++j) {
          ok &= out[j] == in.batch_expect[op.a + j];
        }
        ledger->Expect(ok, "static_read LookupBatch ranks");
        ph->keys_served += kBatch;
        break;
      }
      case kRange: {
        SpanScope root(tracer, kOpRange);
        bool maybe;
        {
          SpanScope s(tracer, kFilterProbe, root.id());
          maybe = b.filter.MightContainRange(op.a, op.b);
        }
        std::vector<uint64_t> got;
        if (maybe) {
          SpanScope s(tracer, kStackScan, root.id());
          got = stack.Scan(op.a, kScanLimit);
        }
        now = NowNs();
        ph->range.Add(static_cast<double>(now - t0));
        ++ph->range_probes;
        ledger->Expect(maybe || !op.nonempty,
                       "static_read range filter false negative");
        if (!maybe) ++ph->range_skipped;
        if (!op.nonempty) {
          ++ph->empty_probes;
          ph->false_positives += maybe;
        }
        if (maybe) {
          const size_t want = std::min(kScanLimit, n - op.expect);
          ledger->Expect(got.size() == want &&
                             (want == 0 || (got.front() == in.keys[op.expect] &&
                                            got.back() ==
                                                in.keys[op.expect + want - 1])),
                         "static_read Scan");
        }
        ph->keys_served += 1;
        break;
      }
    }
    ledger->Attempt();
    ++ph->ops;
  }
  ph->elapsed_s += static_cast<double>(now - start) * 1e-9;
}

}  // namespace

void RunStaticRead(const Args& args, Report* report, Ledger* ledger) {
  const Inputs in = MakeInputs(args.seed);

  // Set-up: inputs in memory -> ready stack and filter, repeated; the
  // last build is kept.
  Built b;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    b.stack.reset();
    const uint64_t t0 = NowNs();
    auto stack = std::make_unique<Stack>();
    Stack::Config cfg;
    cfg.num_shards = 8;
    ledger->ExpectOk(stack->Build(in.keys, cfg), "static_read stack Build");
    li::rangefilter::LearnedRangeFilter filter;
    ledger->ExpectOk(filter.Build(in.keys), "static_read filter Build");
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    b.stack = std::move(stack);
    b.filter = std::move(filter);
  }
  ledger->Expect(b.stack->size() == in.keys.size(), "static_read size");

  // Warm-up: caches, page tables and branch history settle before any
  // phase is measured.
  size_t cursor = 0;
  {
    Phase warm;
    RunPhase(in, b, NowNs() + uint64_t(std::min(1.0, 0.1 * args.seconds) * 1e9),
             nullptr, &cursor, &warm, ledger);
  }
  if (!args.trace) {
    SliceSummary m;
    const uint64_t slice = uint64_t(args.seconds * 1e9 / kSlices);
    for (int i = 0; i < kSlices; ++i) {
      Phase ph;
      RunPhase(in, b, NowNs() + slice, nullptr, &cursor, &ph, ledger);
      m.Add("throughput_ops_s", SafeDiv(ph.keys_served, ph.elapsed_s), ph.ops);
      m.Add("lookup_p50_ns", ph.lookup.Quantile(0.5), ph.lookup.count());
      m.Add("lookup_p99_ns", ph.lookup.Quantile(0.99), ph.lookup.count());
      m.Add("batch_lookup_ns_per_key", ph.batch_per_key.Median(),
            ph.batch_per_key.count());
      m.Add("exists_p50_ns", ph.exists.Quantile(0.5), ph.exists.count());
      m.Add("exists_p99_ns", ph.exists.Quantile(0.99), ph.exists.count());
    }
    m.ReportTo(report);
    report->Set("setup_s", MedianOf(setups), setups.size());
    report->Set("bytes_per_key",
                SafeDiv(double(b.stack->SizeBytes() + b.filter.SizeBytes()),
                        double(b.stack->size())));
    return;
  }

  // Traced run: untraced and traced slices alternate (tracing overhead =
  // their throughput ratio), then the ladder replay.
  Phase plain, traced;
  Samples probe, scan, top;
  const uint64_t slice = uint64_t(args.seconds * 1e9 / (2 * kTraceSlices));
  for (int r = 0; r < kTraceSlices; ++r) {
    RunPhase(in, b, NowNs() + slice, nullptr, &cursor, &plain, ledger);
    Tracer tracer(kSliceSpans);
    RunPhase(in, b, NowNs() + slice, &tracer, &cursor, &traced, ledger);
    probe.Append(tracer.Durations(kFilterProbe));
    scan.Append(tracer.Durations(kStackScan));
    top.Append(tracer.Durations(kStackLookup));
  }
  const li::index::ConcurrentIndexStats after = b.stack->ConcurrentStats();
  const double u = SafeDiv(plain.keys_served, plain.elapsed_s);
  const double t = SafeDiv(traced.keys_served, traced.elapsed_s);
  report->Set("trace.untraced_ops_s", u, plain.ops);
  report->Set("trace.traced_ops_s", t, traced.ops);
  report->Set("trace.overhead_share", SafeDiv(u, t) - 1.0);
  report->Set("range_p50_ns", plain.range.Quantile(0.5), plain.range.count());
  report->Set("range_p99_ns", plain.range.Quantile(0.99), plain.range.count());
  report->Set("rangefilter.probe_ns", probe.Median(), probe.count());
  report->Set("sharded.scan_ns", scan.Median(), scan.count());
  report->Set("rangefilter.skip_share",
              SafeDiv(traced.range_skipped, traced.range_probes),
              traced.range_probes);
  report->Set("rangefilter.fpr",
              SafeDiv(traced.false_positives, traced.empty_probes),
              traced.empty_probes);
  report->Set("rangefilter.bits_per_key",
              SafeDiv(8.0 * double(b.filter.SizeBytes()), double(in.keys.size())));
  report->Set("dynamic.delta_entries_at_read", double(after.delta_entries));
  report->Set("concurrent.log_entries_at_read", double(after.log_entries));
  report->Set("dynamic.delta_hit_rate", after.DeltaHitRate());
  report->Set("dynamic.merges", double(after.merges));
  report->Set("concurrent.freezes", double(after.freezes));
  report->Set("concurrent.reclaim_lag",
              double(after.states_retired - after.states_reclaimed));
  report->Set("sharded.splits", double(after.shard_splits));
  report->Set("sharded.coalesces", double(after.shard_coalesces));
  report->Set("sharded.imbalance_final", after.shard_imbalance);

  // Ladder: the same Lookup keys against each standalone rung.
  // Ladder: the stream's first kLadderOps Lookup keys against each rung,
  // interleaved. Rungs below the sharded one hold all keys in one index,
  // so they get the stack's total leaf count (shards x the default): the
  // same keys per leaf, hence the same model error, as each shard.
  std::vector<const Op*> lk;
  for (const Op& op : in.ops) {
    if (op.kind == kLookup) lk.push_back(&op);
    if (lk.size() == kLadderOps) break;
  }
  li::rmi::RmiConfig rc;
  rc.num_leaf_models *= b.stack->num_shards();
  LinearRmi rmi;
  const uint64_t t0 = NowNs();
  ledger->ExpectOk(rmi.Build(in.keys, rc), "ladder rmi Build");
  report->Set("rmi.build_s", double(NowNs() - t0) * 1e-9);
  DeltaRangeIndex<LinearRmi> delta;
  DeltaRangeIndex<LinearRmi>::Config dc;
  dc.base = rc;
  ledger->ExpectOk(delta.Build(in.keys, dc), "ladder delta Build");
  ConcurrentWritableIndex<LinearRmi> conc;
  ConcurrentWritableIndex<LinearRmi>::Config cc;
  cc.base = rc;
  ledger->ExpectOk(conc.Build(in.keys, cc), "ladder concurrent Build");
  // Rung 4 is the model-only half of the paper's split on the same model.
  Tracer lt(6 * kLadderOps);
  bool ok = true;
  double width = 0.0, max_err = 0.0;
  ReplayInterleaved(
      &lt, 5, lk.size(), kLadderBlock, [](size_t r, size_t) { return int(kRung0 + r); },
      [&](size_t r, size_t i) {
        const uint64_t key = lk[i]->a;
        const size_t want = lk[i]->expect;
        switch (r) {
          case 0: ok &= rmi.Lookup(key) == want; break;
          case 1: ok &= delta.Lookup(key) == want; break;
          case 2: ok &= conc.Lookup(key) == want; break;
          case 3: ok &= b.stack->Lookup(key) == want; break;
          default: {
            const li::index::Approx a = rmi.ApproxPos(key);
            width += double(a.hi - a.lo);
            max_err = std::max(max_err, std::abs(double(a.pos) - double(want)));
          }
        }
      });
  ledger->Attempt(4 * lk.size());
  ledger->Expect(ok, "static_read ladder Lookup rank");
  double rung[4];
  for (int r = 0; r < 4; ++r) rung[r] = lt.Durations(uint16_t(kRung0 + r)).Median();
  Samples predict = lt.Durations(kRungPredict);
  report->Set("rmi.predict_ns", predict.Median(), predict.count());
  report->Set("rmi.window_keys", SafeDiv(width, double(lk.size())), lk.size());
  report->Set("rmi.max_abs_error", max_err, lk.size());
  report->Set("search.lastmile_ns", rung[0] - predict.Median());
  // Standalone SIMD batch path over the stream's batches.
  {
    std::vector<size_t> out(kBatch);
    bool bok = true;
    for (size_t off = 0; off + kBatch <= in.batch_keys.size() && off < kLadderOps;
         off += kBatch) {
      {
        SpanScope s(&lt, kRungBatch);
        rmi.LookupBatch(std::span<const uint64_t>(&in.batch_keys[off], kBatch),
                        std::span<size_t>(out));
      }
      for (size_t j = 0; j < kBatch; ++j) bok &= out[j] == in.batch_expect[off + j];
      ledger->Attempt();
    }
    ledger->Expect(bok, "ladder rmi LookupBatch ranks");
    Samples batch = lt.Durations(kRungBatch);
    report->Set("simd.batch_ns_per_key", batch.Median() / kBatch, batch.count());
  }
  report->Set("dynamic.read_self_ns", rung[1] - rung[0]);
  report->Set("concurrent.read_self_ns", rung[2] - rung[1]);
  report->Set("sharded.read_self_ns", rung[3] - rung[2]);
  report->Set("ladder.read_sum_ns", rung[0] + (rung[1] - rung[0]) +
                                        (rung[2] - rung[1]) + (rung[3] - rung[2]));
  report->Set("ladder.read_top_ns", top.Median(), top.count());
  report->Note("ladder read medians (ns): rmi " + std::to_string(rung[0]) +
               ", delta " + std::to_string(rung[1]) + ", concurrent " +
               std::to_string(rung[2]) + ", sharded " + std::to_string(rung[3]) +
               "; in-workload traced Lookup " + std::to_string(top.Median()));
}

}  // namespace perfbench
