/// perfbench: one run of one workload.
///
///   perfbench --workload <metro_replay|replan_week>
///             --seed N --seconds S --trace <0|1> [--work-dir DIR]
///
/// Prints notes and a metric table, then the JSON verdict as the last line.
/// With --trace 0 the metrics are the end-to-end ones (obs off); with
/// --trace 1 they are the per-layer ones (obs on, spans recorded).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workload.h"

namespace {

/// A run ends within this long or the watchdog reports it as failed.
constexpr double kWatchdogS = 170.0;

bool parse(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n";
    return 2;
  }
  perfbench::WorkloadSpec spec;
  if (args.workload == "metro_replay") {
    spec = perfbench::metro_replay(args);
  } else if (args.workload == "replan_week") {
    spec = perfbench::replan_week(args);
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << '\n';
    return 2;
  }
  perfbench::Result result;
  perfbench::Watchdog watchdog(kWatchdogS, result);
  try {
    perfbench::run_workload(spec, args, result);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << args.workload << " failed: " << ex.what()
              << '\n';
    result.check(false, std::string("run aborted: ") + ex.what());
  }
  watchdog.disarm();
  result.print();
  return 0;
}
