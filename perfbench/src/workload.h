#pragma once

/// \file workload.h
/// A workload is one E-Sharing system under one traffic mix. Every run of
/// every workload has the same shape, so every end-to-end metric is
/// measured on every workload:
///
///   1. set-up, repeated                      -> setup_s
///   2. bulk phase, one simulated hour a step -> hour_p50_ms, events_per_s
///   3. live phase: the system behind an in-process ServeDaemon, driven
///      open-loop at a low and a high decide rate -> lo_p50_ms, hi_p50_ms
///   4. checkpoint, then repeated restores    -> recover_s (optional)
///   5. reference replay at pool width 1      -> correct, cost
///
/// The workload chooses what the bulk phase is (a metro-log replay or a
/// week of hourly re-planning), how its system is built, the shape of its
/// live phase and the pool width. The runner (runner.cpp) owns the shared
/// phases, the checks and the metrics.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serving.h"
#include "stream/pipeline.h"

namespace perfbench {

/// What the bulk phase did.
struct BulkResult {
  std::vector<double> hour_ms;      ///< wall time of each simulated hour
  std::vector<double> hour_events;  ///< events consumed in each hour
  std::size_t events{0};            ///< events the system consumed
  double wall_s{0.0};               ///< total wall time of the hours

  void add_hour(double ms, std::size_t n) {
    hour_ms.push_back(ms);
    hour_events.push_back(static_cast<double>(n));
    events += n;
    wall_s += ms / 1e3;
  }
  /// Trip-end decisions in order.
  TraceDigest decisions;
  /// An invariant the bulk phase checks step by step, and its violations.
  std::string invariant;
  std::size_t violations{0};
  // Per-layer timings of the re-planning hours, ms per hour.
  std::vector<double> forecast_ms;
  std::vector<double> reanchor_ms;
  std::vector<double> decide_ms;
};

/// The live phase's shape.
struct LiveSpec {
  double warmup_s{1.0};  ///< unmeasured, at the high rate
  double lo_s{0.0};      ///< seconds at the low rate
  double hi_s{0.0};      ///< seconds at the high rate
  /// One publish frame (8 telemetry reports, 8 trip-ends) per 8 decides.
  bool publish_frames{true};
  /// Restores of the post-live checkpoint; 0 skips checkpoint and restores.
  std::size_t restore_repeats{15};
};

struct WorkloadSpec {
  std::string name;
  std::size_t pool_width{2};
  LiveSpec live;
  /// Daemon config for the live phase (the checkpoint path is filled in by
  /// the runner); its pipeline config also drives the traced probe replays.
  serve::ServeConfig serve;
  /// Fresh system from the run's seed; also the restore path's bootstrap.
  BuildFn build;
  /// The bulk phase on a built system; runs before the daemon exists.
  std::function<BulkResult(Built&, Tracer&)> bulk;
  /// Cheap reference for the bulk phase: the decisions it must have made,
  /// computed another way on a fresh system. Optional; traced runs also
  /// repeat the bulk phase at pool width 1.
  std::function<TraceDigest(Built& ref)> reference_bulk;
  /// The first `n` trip-ends that follow the bulk phase in simulated time,
  /// in order: the live traffic (and the restore continuation) is drawn
  /// from them.
  std::function<std::vector<stream::Event>(std::size_t n)> live_trip_ends;
  /// Events the traced run replays in-process through a Pipeline with the
  /// `serve.pipeline` config, for the stream/stats/core layer numbers.
  /// Optional: a workload with no stream in its bulk phase reports them as 0.
  std::function<std::vector<stream::Event>()> probe_events;
  std::size_t setup_repeats{30};
  /// Bulk passes; each after the first runs on a freshly built system and
  /// only adds hour samples.
  std::size_t bulk_passes{1};
};

/// Run one workload and fill `result` with the end-to-end metrics (or, in
/// a traced run, the per-layer metrics).
void run_workload(const WorkloadSpec& spec, const Args& args, Result& result);

WorkloadSpec metro_replay(const Args& args);
WorkloadSpec replan_week(const Args& args);

}  // namespace perfbench
