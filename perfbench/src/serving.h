#pragma once

/// \file serving.h
/// The phases every workload shares: repeated set-up, the live serving
/// phase (an in-process ServeDaemon driven open-loop over one connection),
/// checkpoint + repeated restores, and the in-process reference replay that
/// the daemon's answers are checked against.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/esharing.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "stream/event.h"

namespace perfbench {

namespace core = esharing::core;
namespace serve = esharing::serve;
namespace stream = esharing::stream;
namespace geo = esharing::geo;
using esharing::solver::OnlineDecision;

/// A system ready to serve: planned offline and online.
struct Built {
  std::unique_ptr<core::ESharing> system;
  std::vector<geo::Point> ks_history;
  double gen_s{0.0};   ///< data generation and binning (layer `data`)
  double plan_s{0.0};  ///< plan_offline + start_online (layer `solver`)
};

using BuildFn = std::function<Built()>;

/// Set-up times; their median is the run's set-up time.
struct SetupResult {
  Built built;  ///< the last system built
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> plan_s;
};
/// Build `repeats` times and append the times to `out`.
void repeated_setup(const BuildFn& build, std::size_t repeats,
                    SetupResult& out);

/// Bounded blocking calls: every synchronous client call gives up after
/// this long and counts as a failed operation.
inline constexpr double kCallDeadlineS = 10.0;
void set_deadline(const serve::ServeClient& client, double seconds);

/// One item of the open-loop schedule: a decide (one trip-end) or a
/// publish frame (telemetry plus trip-ends that need no reply).
struct Item {
  bool publish{false};
  std::vector<stream::Event> events;
  double due_s{0.0};  ///< offset from the schedule start
  int phase{0};       ///< index into the phase list; -1 = warm-up
};

struct Phase {
  double rate{0.0};     ///< decides per second
  double seconds{0.0};  ///< phase length
};

/// The live traffic: decides at each phase's rate and, with
/// `publish_frames`, after every 8th decide one publish frame of 16 events
/// (8 telemetry, 8 trip-ends). Trip ends are taken in order from
/// `trip_ends`; telemetry is synthesized at their locations. Phase -1 is an
/// unmeasured warm-up.
struct Schedule {
  std::vector<Item> items;
  std::size_t decides{0};
  std::size_t frames{0};
  std::size_t trip_ends_used{0};
};
Schedule make_schedule(const std::vector<stream::Event>& trip_ends,
                       const Phase& warmup, const std::vector<Phase>& phases,
                       bool publish_frames, std::uint64_t seed);

/// What the open loop observed.
struct LiveResult {
  std::vector<std::vector<double>> decide_ms;  ///< per phase, from due time
  std::vector<double> publish_ms;              ///< measured phases only
  std::vector<double> late_ms;                 ///< sender lateness, all items
  std::vector<double> send_us;                 ///< ServeClient::send per decide
  std::vector<OnlineDecision> replies;         ///< per decide, in send order
  std::vector<bool> answered;                  ///< per decide
  std::size_t unanswered{0};
  std::size_t errors{0};
  std::size_t short_acks{0};
};

/// Drive `schedule` open-loop over one connection: one sender thread keeps
/// to the due times, one reader thread matches decisions by ref and acks in
/// frame order. Latency runs from an item's due time to its answer.
LiveResult drive_open_loop(std::uint16_t port, const Schedule& schedule,
                           std::size_t n_phases);

/// Sequence of events exactly as the daemon's bus sees them for `items`,
/// plus the position of each decide among the sequence's trip-ends.
void flatten(const std::vector<Item>& items, std::vector<stream::Event>& seq,
             std::vector<std::size_t>& decide_trip_index);

/// Restores of a checkpoint into fresh daemons.
struct RestoreResult {
  std::vector<double> recover_s;  ///< fresh build + start() + first answer
  std::vector<double> bootstrap_ms;
  std::vector<double> restore_ms;
  /// Per restart, the continuation decides it answered (short on failure).
  std::vector<std::vector<OnlineDecision>> answers;
};

/// `repeats` times: copy `checkpoint`, build a fresh system, start a daemon
/// on the copy, and decide `continuation` synchronously. Appends to `out`.
void repeated_restore(const BuildFn& build, const serve::ServeConfig& config,
                      const std::string& checkpoint,
                      const std::string& work_dir,
                      const std::vector<stream::Event>& continuation,
                      std::size_t repeats, RestoreResult& out);

/// Synchronous checkpoint_now() on its own connection; returns the wall
/// time in ms, or a negative value on failure.
double timed_checkpoint(std::uint16_t port);

/// Ask the daemon to stop over its own connection and join it.
bool stop_daemon(serve::ServeDaemon& daemon);

}  // namespace perfbench
