#pragma once

/// \file harness.h
/// Measurement helpers shared by the three workloads: exact percentiles from
/// raw samples, the tail-percentile rule, peak RSS, decision digests,
/// in-memory spans, a watchdog, and the result object whose last stdout
/// line is the benchmark's JSON verdict.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "solver/meyerson.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string work_dir{".bench_build/run"};
};

// --- exact statistics over raw samples ---------------------------------

/// Nearest-rank percentile of unsorted samples: the value at rank
/// ceil(p/100 * n). p in (0, 100]. Empty input returns 0.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// The highest percentile of the ladder 90, 99, 99.9, 99.99 that leaves at
/// least ten samples strictly beyond its rank; 50 when even p90 leaves
/// fewer.
double tail_percentile(std::size_t n);

/// Median, tail percentile and the count they were taken over.
struct Summary {
  std::size_t count{0};
  double p50{0.0};
  double tail_pct{50.0};
  double tail{0.0};
};
Summary summarize(const std::vector<double>& samples);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Running FNV-1a digest of a decision trace (opened, facility,
/// connection-cost bits) and its length, so traces can be compared without
/// keeping them.
class TraceDigest {
 public:
  void add(const esharing::solver::OnlineDecision& d);
  void add(const std::vector<esharing::solver::OnlineDecision>& d);
  [[nodiscard]] std::size_t count() const { return count_; }
  bool operator==(const TraceDigest&) const = default;

 private:
  std::uint64_t hash_{1469598103934665603ULL};
  std::size_t count_{0};
};
TraceDigest digest(const std::vector<esharing::solver::OnlineDecision>& d);
bool same_decision(const esharing::solver::OnlineDecision& a,
                   const esharing::solver::OnlineDecision& b);

// --- spans ---------------------------------------------------------------

/// One traced interval around a call into a layer. `request` groups the
/// spans of one request, hour or replay; `parent` is the enclosing span's
/// index (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t parent{-1};
  std::uint64_t request{0};
};

/// In-memory span store, written out once when the run ends. Disabled
/// tracers record nothing, so measured runs pay one branch per site.
/// Single-threaded: only the thread that drives a workload records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its id (or -1 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t request);
  void end(std::int64_t id);

  /// Total and self time (minus directly nested child spans) per name, ms.
  struct Totals {
    std::size_t count{0};
    double total_ms{0.0};
    double self_ms{0.0};
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Write every span as one JSON line. Returns false when the file cannot
  /// be written.
  bool write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::uint64_t request)
      : t_(t), id_(t.begin(name, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

// --- result --------------------------------------------------------------

/// What a run reports: correctness, operation accounting and metrics. The
/// human-readable lines go to stdout first; the JSON object is the last
/// line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& better);
  /// One operation attempted; `ok == false` counts it as failed.
  void op(bool ok, std::size_t n = 1);
  /// A reference check: a failing one makes the run incorrect and counts
  /// as a failed operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Print the notes, the metric table and the JSON line.
  void print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::string better;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::string> notes_;
  // Atomic so the watchdog can read them while the workload is stuck.
  std::atomic<bool> correct_{true};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// Ends a stuck run: if disarm() is not called within `limit_s`, prints the
/// verdict line with `correct: false`, the operations counted so far and
/// the stuck one as failed, and exits the process.
class Watchdog {
 public:
  Watchdog(double limit_s, const Result& partial);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  void disarm();

 private:
  struct State;
  State* state_;
};

// --- files ---------------------------------------------------------------

bool copy_file(const std::string& from, const std::string& to);
std::uint64_t file_size(const std::string& path);
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace perfbench
