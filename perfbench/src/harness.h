// Shared pieces of the end-to-end benchmark: run arguments, the clock,
// raw latency samples, the correctness ledger, the in-memory span tracer
// and the report printer. Every workload (static_read.cc,
// mixed_durable.cc, point_existence.cc) is written against this header
// only; the library is reached through its public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (inside the checkout) for WAL and snapshot files.
  std::string work_dir;
};

/// Raw per-operation samples of one operation class. Kept unbucketed so
/// a quantile carries every digit the clock gave it.
class Samples {
 public:
  void Add(double ns) {
    v_.push_back(ns);
    sorted_ = false;
  }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  size_t count() const { return v_.size(); }
  double Mean() const {
    if (v_.empty()) return 0.0;
    double s = 0.0;
    for (double x : v_) s += x;
    return s / static_cast<double>(v_.size());
  }
  /// Quantile with linear interpolation between order statistics; 0 when
  /// empty.
  double Quantile(double q) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(v_.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (pos - static_cast<double>(lo)) * (v_[hi] - v_[lo]);
  }
  double Median() { return Quantile(0.5); }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Operations attempted and wrong answers (a mismatch against the
/// precomputed expectation or the oracle, or a non-OK Status). The first
/// few failures are described on stderr.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts a failure when `ok` is false.
  bool Expect(bool ok, const char* what) {
    if (!ok) {
      if (failed_ < 8) std::fprintf(stderr, "perfbench: wrong answer: %s\n", what);
      ++failed_;
    }
    return ok;
  }
  bool ExpectOk(const li::Status& st, const char* what) {
    if (!st.ok() && failed_ < 8) {
      std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    }
    if (!st.ok()) ++failed_;
    return st.ok();
  }
  void Merge(const Ledger& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder. A span is one call the benchmark makes into a
/// layer's public function (or one whole operation, as the root of its
/// child calls); spans of one operation share the root as parent. Spans
/// are only summarised when the run ends. Recording stops once the
/// preallocated buffer is full; callers end their traced phase on full().
/// Layer self times come from the ladder (ReplayInterleaved below): the
/// library's internals carry no spans of their own.
class Tracer {
 public:
  static constexpr uint32_t kRoot = UINT32_MAX;

  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  bool full() const { return spans_.size() == spans_.capacity(); }

  uint32_t Begin(uint16_t name, uint32_t parent = kRoot) {
    if (full()) return kRoot;
    spans_.push_back(Span{NowNs(), 0, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) {
    if (id != kRoot) spans_[id].end = NowNs();
  }

  /// Durations of every completed span named `name`.
  Samples Durations(uint16_t name) const {
    Samples out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end != 0) {
        out.Add(static_cast<double>(s.end - s.start));
      }
    }
    return out;
  }

 private:
  struct Span {
    uint64_t start;
    uint64_t end;
    uint32_t parent;
    uint16_t name;
  };
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced path runs the
/// same code).
class SpanScope {
 public:
  SpanScope(Tracer* t, uint16_t name, uint32_t parent = Tracer::kRoot)
      : t_(t), id_(t ? t->Begin(name, parent) : Tracer::kRoot) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  uint32_t id_;
};

/// The ladder replay: operations run in blocks of `block`; each block
/// runs on every rung before the next block runs on any, with the rung
/// order rotated per block so drift falls on all rungs alike while each
/// rung keeps its own hot set (model tables) warm within a block.
/// `name(r, i)` gives the span name for rung r and operation i, or a
/// negative value when rung r does not take that operation; `op(r, i)`
/// runs it inside that span.
template <typename NameFn, typename OpFn>
void ReplayInterleaved(Tracer* tracer, size_t rungs, size_t n, size_t block,
                       NameFn&& name, OpFn&& op) {
  for (size_t start = 0, round = 0; start < n; start += block, ++round) {
    const size_t end = std::min(n, start + block);
    for (size_t k = 0; k < rungs; ++k) {
      const size_t r = (round + k) % rungs;
      for (size_t i = start; i < end; ++i) {
        const int nm = name(r, i);
        if (nm < 0) continue;
        SpanScope s(tracer, static_cast<uint16_t>(nm));
        op(r, i);
      }
    }
  }
}

/// One metric the benchmark reports: its name and unit as BENCHMARK.json
/// lists them and, for a per-layer metric, the end-to-end metric (and
/// workload) it should move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;
};

/// End-to-end metrics, reported on every workload with tracing off.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"throughput_ops_s", "1/s", ""},
    {"lookup_p50_ns", "ns", ""},
    {"lookup_p99_ns", "ns", ""},
    {"batch_lookup_ns_per_key", "ns", ""},
    {"exists_p50_ns", "ns", ""},
    {"exists_p99_ns", "ns", ""},
    {"bytes_per_key", "B", ""},
};

/// Per-layer metrics, reported on every workload with tracing on. A layer
/// that is not on a workload's path reports 0 there.
inline constexpr MetricDef kPerLayer[] = {
    {"range_p50_ns", "ns", "op latency: static_read, mixed_durable"},
    {"range_p99_ns", "ns", "op latency: static_read, mixed_durable"},
    {"write_p50_ns", "ns", "op latency: mixed_durable, point_existence"},
    {"write_p99_ns", "ns", "op latency: mixed_durable, point_existence"},
    {"recover_s", "s", "op latency: mixed_durable"},
    {"rmi.predict_ns", "ns", "lookup_p50_ns on static_read"},
    {"rmi.window_keys", "count", "lookup_p50_ns on static_read"},
    {"rmi.max_abs_error", "count", "lookup_p50_ns on static_read"},
    {"rmi.build_s", "s", "setup_s"},
    {"search.lastmile_ns", "ns", "lookup_p50_ns on static_read"},
    {"simd.batch_ns_per_key", "ns", "batch_lookup_ns_per_key on static_read"},
    {"dynamic.read_self_ns", "ns", "lookup_p50_ns on mixed_durable"},
    {"dynamic.delta_entries_at_read", "count", "lookup_p50_ns on mixed_durable"},
    {"dynamic.delta_hit_rate", "ratio", "lookup_p50_ns on mixed_durable"},
    {"dynamic.merges", "count", "write_p99_ns, throughput_ops_s on mixed_durable"},
    {"dynamic.merge_busy_s", "s", "write_p99_ns, throughput_ops_s on mixed_durable"},
    {"dynamic.merged_keys_per_write", "ratio", "write_p99_ns, throughput_ops_s on mixed_durable"},
    {"concurrent.read_self_ns", "ns", "lookup_p50_ns on mixed_durable; flat on static_read"},
    {"concurrent.log_entries_at_read", "count", "lookup_p50_ns on mixed_durable; flat on static_read"},
    {"concurrent.write_self_ns", "ns", "write_p99_ns on mixed_durable"},
    {"concurrent.freezes", "count", "write_p99_ns on mixed_durable"},
    {"concurrent.writer_contended_share", "ratio", "write_p99_ns on mixed_durable"},
    {"concurrent.reclaim_lag", "count", "write_p99_ns on mixed_durable"},
    {"sharded.read_self_ns", "ns", "lookup_p50_ns on static_read, mixed_durable"},
    {"sharded.scan_ns", "ns", "range_p50_ns on static_read"},
    {"sharded.splits", "count", "write_p99_ns on mixed_durable"},
    {"sharded.coalesces", "count", "write_p99_ns on mixed_durable"},
    {"sharded.imbalance_final", "ratio", "write_p99_ns on mixed_durable"},
    {"wal.write_self_ns", "ns", "write_p50_ns, write_p99_ns on mixed_durable"},
    {"wal.syncs_per_write", "ratio", "write_p50_ns, write_p99_ns on mixed_durable"},
    {"wal.bytes_per_write", "B", "write_p50_ns, write_p99_ns on mixed_durable"},
    {"wal.replay_records", "count", "recover_s on mixed_durable"},
    {"snapshot.checkpoint_s", "s", "setup_s on mixed_durable"},
    {"rangefilter.probe_ns", "ns", "range_p50_ns on static_read"},
    {"rangefilter.skip_share", "ratio", "range_p50_ns on static_read"},
    {"rangefilter.fpr", "ratio", "range_p99_ns on static_read"},
    {"rangefilter.bits_per_key", "bits", "bytes_per_key on static_read"},
    {"hash.find_ns", "ns", "lookup_p50_ns on point_existence"},
    {"hash.mean_probe", "count", "lookup_p50_ns on point_existence"},
    {"hash.findbatch_ns_per_key", "ns", "batch_lookup_ns_per_key on point_existence"},
    {"hash.utilization", "ratio", "bytes_per_key on point_existence"},
    {"concurrent_point.find_self_ns", "ns", "lookup_p50_ns on point_existence"},
    {"concurrent_point.log_entries_at_read", "count", "lookup_p50_ns on point_existence"},
    {"concurrent_point.rebuilds", "count", "write_p99_ns on point_existence"},
    {"concurrent_point.freezes", "count", "write_p99_ns on point_existence"},
    {"bloom.probe_ns", "ns", "exists_p50_ns on point_existence"},
    {"existence.self_ns", "ns", "exists_p50_ns on point_existence"},
    {"existence.rebuilds", "count", "exists_p99_ns on point_existence"},
    {"existence.fpr", "ratio", "quality vs the 0.01 target on point_existence"},
    {"ladder.read_sum_ns", "ns", "sanity: explains ladder.read_top_ns"},
    {"ladder.read_top_ns", "ns", "sanity: in-workload traced read"},
    {"ladder.write_sum_ns", "ns", "sanity: explains ladder.write_top_ns"},
    {"ladder.write_top_ns", "ns", "sanity: in-workload traced write"},
    {"trace.untraced_ops_s", "1/s", "tracing overhead: untraced half"},
    {"trace.traced_ops_s", "1/s", "tracing overhead: traced half"},
    {"trace.overhead_share", "ratio", "untraced/traced throughput - 1"},
};

/// The metrics of one run, printed as a table (with sample counts and,
/// for per-layer metrics, the end-to-end metric each should move) and
/// then as the one-line JSON result that ends standard output. The JSON
/// holds exactly the end-to-end list (trace off) or the per-layer list
/// (trace on), in that order.
class Report {
 public:
  void Set(const std::string& name, double value, uint64_t samples = 0) {
    for (Row& r : rows_) {
      if (r.name == name) {
        r = Row{name, value, samples};
        return;
      }
    }
    rows_.push_back(Row{name, value, samples});
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints the table and the JSON line. An end-to-end metric the
  /// workload failed to set counts as a failure.
  void Print(const Args& args, Ledger* ledger) const {
    std::printf("workload %s seed %llu seconds %.3g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
    std::string json;
    auto emit = [&](const MetricDef& d) {
      const Row* row = nullptr;
      for (const Row& r : rows_) {
        if (r.name == d.name) row = &r;
      }
      if (row == nullptr && !args.trace) {
        ledger->Expect(false, d.name);
      }
      double v = row ? row->value : 0.0;
      if (!std::isfinite(v)) v = 0.0;
      std::printf("  %-36s %16.6g %-6s %10llu  %s\n", d.name, v, d.unit,
                  static_cast<unsigned long long>(row ? row->samples : 0),
                  row ? d.moves : "(not on this workload's path)");
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (!json.empty()) json += ", ";
      json += std::string("\"") + d.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + d.unit + "\"}";
    };
    std::printf("  %-36s %16s %-6s %10s  %s\n", "metric", "value", "unit",
                "samples", args.trace ? "should move" : "");
    if (args.trace) {
      for (const MetricDef& d : kPerLayer) emit(d);
    } else {
      for (const MetricDef& d : kEndToEnd) emit(d);
    }
    std::printf("  attempted %llu failed %llu\n",
                static_cast<unsigned long long>(ledger->attempted()),
                static_cast<unsigned long long>(ledger->failed()));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                ledger->failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger->attempted()),
                static_cast<unsigned long long>(ledger->failed()),
                json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    uint64_t samples;
  };
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// Median of a few repeated set-up times.
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double SafeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The timed phase is cut into kSlices equal slices; each end-to-end
/// metric is computed per slice and reported as the mean of the slice
/// values left after dropping the kTrimSlices highest and lowest. The
/// trim keeps a single disturbed slice out of the result. The mean, not
/// the median, because a shared host can switch between a fast and a slow
/// state every few seconds: a median over slices then snaps to one state
/// or the other from run to run, while the mean follows the share of time
/// spent in each.
inline constexpr int kSlices = 20;
inline constexpr int kTrimSlices = 2;
static_assert(kSlices > 2 * kTrimSlices);

/// Mean of the kSlices values of one metric without the kTrimSlices
/// lowest and highest.
inline double TrimmedMean(std::vector<double> v) {
  const size_t trim = kTrimSlices;
  std::sort(v.begin(), v.end());
  double s = 0.0;
  for (size_t i = trim; i < v.size() - trim; ++i) s += v[i];
  return s / static_cast<double>(v.size() - 2 * trim);
}

/// Per-slice values of the end-to-end metrics, reduced to trimmed means.
class SliceSummary {
 public:
  void Add(const std::string& name, double value, uint64_t samples) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.values.push_back(value);
        e.samples += samples;
        return;
      }
    }
    entries_.push_back(Entry{name, {value}, samples});
  }
  /// Sets each metric to its trimmed mean over slices and notes the
  /// per-slice values, so the table shows the spread inside the run.
  void ReportTo(Report* report) const {
    for (const Entry& e : entries_) {
      report->Set(e.name, TrimmedMean(e.values), e.samples);
      std::string line = e.name + " per slice:";
      for (double v : e.values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.4g", v);
        line += buf;
      }
      report->Note(line);
    }
  }

 private:
  struct Entry {
    std::string name;
    std::vector<double> values;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
};

/// Entry points, one per workload. Each fills `report` with exactly the
/// end-to-end metrics (trace off) or exactly the per-layer metrics (trace
/// on) and counts every operation in `ledger`.
void RunStaticRead(const Args& args, Report* report, Ledger* ledger);
void RunMixedDurable(const Args& args, Report* report, Ledger* ledger);
void RunPointExistence(const Args& args, Report* report, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
