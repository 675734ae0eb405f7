#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0};
  for (const double p : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  s.p50 = percentile(samples, 50.0);
  s.tail_pct = tail_percentile(samples.size());
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void TraceDigest::add(const esharing::solver::OnlineDecision& d) {
  const auto mix = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  };
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d.connection_cost, sizeof(bits));
  mix(d.opened ? 1 : 0);
  mix(static_cast<std::uint64_t>(d.facility));
  mix(bits);
  ++count_;
}

void TraceDigest::add(const std::vector<esharing::solver::OnlineDecision>& d) {
  for (const auto& x : d) add(x);
}

TraceDigest digest(const std::vector<esharing::solver::OnlineDecision>& d) {
  TraceDigest t;
  t.add(d);
  return t;
}

bool same_decision(const esharing::solver::OnlineDecision& a,
                   const esharing::solver::OnlineDecision& b) {
  return a.opened == b.opened && a.facility == b.facility &&
         a.connection_cost == b.connection_cost;
}

// --- Tracer ----------------------------------------------------------------

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(os);
}

// --- Result ----------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& better) {
  metrics_.push_back({name, Metric{value, unit, better}});
}

void Result::op(bool ok, std::size_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Result::check(bool ok, const std::string& what) {
  op(ok);
  note(std::string(ok ? "check ok:     " : "CHECK FAILED: ") + what);
  if (!ok) correct_ = false;
}

void Result::note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_json_line(bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::string& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
            << ", \"failed\": " << failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
}

}  // namespace

void Result::print() const {
  for (const auto& n : notes_) std::cout << n << '\n';
  std::cout << '\n';
  std::string json;
  for (const auto& [name, m] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %16.6f %-8s (%s is better)",
                  name.c_str(), m.value, m.unit.c_str(), m.better.c_str());
    std::cout << line << '\n';
    if (!json.empty()) json += ", ";
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "attempted " << attempted_ << ", failed " << failed_
            << (correct_ ? ", all checks passed" : ", CHECKS FAILED") << '\n';
  print_json_line(correct_, attempted_, failed_, json);
}

// --- Watchdog --------------------------------------------------------------

struct Watchdog::State {
  std::mutex mu;
  std::condition_variable cv;
  bool disarmed{false};
  std::thread thread;
};

Watchdog::Watchdog(double limit_s, const Result& partial)
    : state_(new State) {
  State* st = state_;
  const Result* result = &partial;
  st->thread = std::thread([st, result, limit_s] {
    std::unique_lock<std::mutex> lock(st->mu);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(limit_s));
    if (st->cv.wait_until(lock, deadline, [st] { return st->disarmed; })) {
      return;
    }
    std::cerr << "perfbench: watchdog fired after " << limit_s
              << " s; the workload is stuck\n";
    // The stuck operation itself is the one more failure.
    print_json_line(false, result->attempted() + 1, result->failed() + 1, "");
    std::_Exit(0);
  });
}

void Watchdog::disarm() {
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    state_->disarmed = true;
  }
  state_->cv.notify_all();
  if (state_->thread.joinable()) state_->thread.join();
}

Watchdog::~Watchdog() {
  disarm();
  delete state_;
}

// --- files -----------------------------------------------------------------

bool copy_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing, ec);
  return !ec;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
