#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace obs = esharing::obs;
namespace exec = esharing::exec;

constexpr std::size_t kContinuation = 8;  // decides after the checkpoint
// Offered decide rates of the live phase (ROADMAP saw saturation at 2,000/s).
constexpr double kLoRate = 250.0;
constexpr double kHiRate = 1000.0;
/// The timed publish_batch + pump calls of an untraced probe replay must
/// add up to Pipeline::replay's wall time on the same events within this
/// share. Both replays run with obs off and no spans, each the faster of
/// two.
constexpr double kAccountingTolerance = 0.10;

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

void note_summary(Result& r, const std::string& what, const Summary& s,
                  const std::vector<double>& samples) {
  r.note(what + fmt(": n=%.0f p50=%.4f ms p%g=%.4f ms",
                    static_cast<double>(s.count), s.p50, s.tail_pct, s.tail) +
         fmt(" (p90 %.3f, p99 %.3f, p99.9 %.3f, max %.3f)",
             percentile(samples, 90), percentile(samples, 99),
             percentile(samples, 99.9), percentile(samples, 100)) +
         fmt(", %.0f above 2x p50",
             static_cast<double>(std::count_if(
                 samples.begin(), samples.end(),
                 [&](double v) { return v > 2.0 * s.p50; }))));
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// The post-bulk placer and re-optimization state, so a reference can start
/// where the live phase starts without repeating the bulk phase.
struct SystemState {
  std::string placer;
  std::string reopt;
};

SystemState save_state(const core::ESharing& system) {
  std::ostringstream placer_os;
  std::ostringstream reopt_os;
  system.save_placer(placer_os);
  system.save_reopt(reopt_os);
  return {placer_os.str(), reopt_os.str()};
}

Built restored(const WorkloadSpec& spec, const SystemState& state) {
  Built b = spec.build();
  std::istringstream placer_is(state.placer);
  std::istringstream reopt_is(state.reopt);
  b.system->restore_placer(placer_is);
  b.system->restore_reopt(reopt_is);
  return b;
}

/// What the live phase observed.
struct LiveOutcome {
  LiveResult live;
  std::size_t decides{0};
  std::size_t frames{0};
  double cost{0.0};  ///< the system's total cost after the live phase
  double peak_rss_mb{0.0};  ///< peak RSS up to the daemon's stop
  // 0 (or empty) when the workload skips checkpoint and restores.
  double checkpoint_ms{0.0};
  std::uint64_t checkpoint_bytes{0};
  RestoreResult restores;
  double daemon_p50_ms{0.0};
  double daemon_bucket_lo_ms{0.0};
  double daemon_bucket_hi_ms{0.0};
  double pump_rounds{0.0};
};

/// The live phase: the open loop over one connection and, when the
/// workload asks for them, a checkpoint and restores into fresh daemons;
/// checked against an in-process Pipeline::replay at pool width 1 from the
/// post-bulk state.
LiveOutcome live_phase(const WorkloadSpec& spec, const Args& args,
                       Built& built, const SystemState& state,
                       const std::string& dir, Result& r) {
  const std::size_t restores = spec.live.restore_repeats;
  serve::ServeConfig cfg = spec.serve;
  // Without restores the daemon runs with checkpointing disabled.
  if (restores > 0) cfg.checkpoint_path = dir + "/live.ckpt";
  std::optional<serve::ServeDaemon> daemon;
  daemon.emplace(*built.system, built.ks_history, cfg);
  daemon->start();

  // The warm-up runs at the high rate: it settles the connection into the
  // state it keeps under load (see README, "lo and the 4 ms floor").
  const Phase warmup{kHiRate, spec.live.warmup_s};
  const Phase lo{kLoRate, spec.live.lo_s};
  const Phase hi{kHiRate, spec.live.hi_s};
  // make_schedule rounds each phase to whole groups of 8 decides, at most
  // 4 over per phase.
  const std::size_t max_decides = static_cast<std::size_t>(std::ceil(
      warmup.rate * warmup.seconds + lo.rate * lo.seconds +
      hi.rate * hi.seconds)) + 12;
  const auto trips =
      spec.live_trip_ends((spec.live.publish_frames ? 2 : 1) * max_decides +
                          (restores > 0 ? kContinuation : 0));
  const Schedule sched = make_schedule(trips, warmup, {lo, hi},
                                       spec.live.publish_frames, args.seed);
  std::vector<stream::Event> continuation;
  if (restores > 0) {
    if (trips.size() < sched.trip_ends_used + kContinuation) {
      throw std::logic_error("live phase: no trip-ends left to continue");
    }
    continuation.assign(
        trips.begin() + static_cast<std::ptrdiff_t>(sched.trip_ends_used),
        trips.begin() + static_cast<std::ptrdiff_t>(sched.trip_ends_used +
                                                    kContinuation));
  }
  if (args.trace) obs::Registry::global().reset();
  LiveOutcome out;
  out.live = drive_open_loop(daemon->port(), sched, 2);
  out.decides = sched.decides;
  out.frames = sched.frames;
  if (args.trace) {
    // Read before the restores add their decides.
    const auto& h =
        obs::Registry::global().histogram("serve.decide.latency_seconds");
    const double q = h.quantile(0.5);
    const auto& edges = h.upper_bounds();
    const auto up = std::lower_bound(edges.begin(), edges.end(), q);
    out.daemon_p50_ms = q * 1e3;
    if (up != edges.end()) {
      out.daemon_bucket_hi_ms = *up * 1e3;
      out.daemon_bucket_lo_ms = up == edges.begin() ? 0.0 : *(up - 1) * 1e3;
    }
    out.pump_rounds = static_cast<double>(counter(
        obs::Registry::global().snapshot(), "stream.pipeline.pump_rounds"));
  }
  const LiveResult& live = out.live;
  const std::size_t live_failed =
      std::min(live.unanswered + live.errors + live.short_acks,
               sched.decides + sched.frames);
  r.op(true, sched.decides + sched.frames - live_failed);
  r.op(false, live_failed);

  // Checkpoint the live daemon and stop it.
  const std::string base = dir + "/base.ckpt";
  bool copied = false;
  if (restores > 0) {
    out.checkpoint_ms = timed_checkpoint(daemon->port());
    r.op(out.checkpoint_ms >= 0.0);
    copied = copy_file(cfg.checkpoint_path, base);
    r.op(copied);
    out.checkpoint_bytes = file_size(base);
  }
  r.op(stop_daemon(*daemon));
  out.cost = built.system->placer().total_cost();
  daemon.reset();
  // The high-water mark of the serving run, read before the restores and
  // the reference replays that check it add their own memory.
  out.peak_rss_mb = peak_rss_mb();

  // Restores of the checkpoint into fresh daemons: half now, half after
  // the reference, so the median spans more of the run than one burst.
  const std::size_t first_half = restores / 2;
  if (copied) {
    repeated_restore(spec.build, cfg, base, dir, continuation, first_half,
                     out.restores);
  }

  // Reference: a fresh system at pool width 1 replays everything the daemon
  // saw, and must make the same decisions.
  exec::set_global_threads(1);
  Built ref = restored(spec, state);
  stream::PipelineConfig ref_cfg = cfg.pipeline;
  ref_cfg.lanes = 1;
  std::vector<OnlineDecision> expected_continuation;
  {
    stream::Pipeline p(*ref.system, ref.ks_history, ref_cfg);
    std::vector<stream::Event> seq;
    std::vector<std::size_t> idx;
    flatten(sched.items, seq, idx);
    const auto rl = p.replay(seq);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (!live.answered[i]) continue;  // counted as failed above
      if (idx[i] >= rl.decisions.size() ||
          !same_decision(rl.decisions[idx[i]], live.replies[i])) {
        ++bad;
      }
    }
    r.check(bad == 0, "live phase: " + std::to_string(idx.size()) +
                          " decide replies equal Pipeline::replay of the "
                          "same event sequence");
    const double ref_cost = ref.system->placer().total_cost();
    r.check(ref_cost == out.cost,
            fmt("cost %.6f equals the reference replay's %.6f", out.cost,
                ref_cost));
    if (restores > 0) {
      expected_continuation = p.replay(continuation).decisions;
    }
  }
  exec::set_global_threads(spec.pool_width);
  if (restores == 0) return out;
  if (copied) {
    repeated_restore(spec.build, cfg, base, dir, continuation,
                     restores - first_half, out.restores);
  }
  std::size_t restore_ok = 0;
  for (const auto& answers : out.restores.answers) {
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (i < expected_continuation.size() &&
          same_decision(answers[i], expected_continuation[i])) {
        ++restore_ok;
      }
    }
  }
  const std::size_t restore_ops = restores * kContinuation;
  r.op(true, restore_ok);
  r.op(false, restore_ops - restore_ok);
  r.check(restore_ok == restore_ops,
          "restore: " + std::to_string(restore_ok) + " of " +
              std::to_string(restore_ops) +
              " decides after restart equal the uninterrupted continuation");
  return out;
}

/// One in-process replay of the probe events through a fresh system: a
/// plain Pipeline::replay, or (unrolled) the same loop with each
/// publish_batch and pump call timed and, when `tracer` is on, spanned.
struct ProbeRun {
  double wall_s{0.0};
  double publish_s{0.0};
  double pump_s{0.0};
  std::uint64_t ks_checks{0};
  TraceDigest digest;
  stream::PipelineStats stats;
};

ProbeRun probe_replay(const WorkloadSpec& spec,
                      const std::vector<stream::Event>& events,
                      stream::PipelineConfig cfg, bool unrolled,
                      Tracer& tracer) {
  Built b = spec.build();
  stream::Pipeline p(*b.system, b.ks_history, cfg);
  ProbeRun out;
  std::vector<OnlineDecision> decisions;
  const auto t0 = Clock::now();
  if (!unrolled) {
    decisions = p.replay(events).decisions;
  } else {
    // Pipeline::replay's own loop: publish a cadence-sized batch, pump;
    // one last pump drains the rest.
    ScopedSpan root(tracer, "stream.replay", 0);
    const std::size_t cadence = std::min(
        cfg.pump_every == 0 ? cfg.bus.queue_capacity : cfg.pump_every,
        cfg.bus.queue_capacity);
    std::uint64_t batch = 0;
    for (std::size_t i = 0; i <= events.size(); i += cadence, ++batch) {
      const std::size_t n =
          std::min(cadence, events.size() - std::min(i, events.size()));
      if (n > 0) {
        ScopedSpan s(tracer, "stream.publish_batch", batch);
        const auto ta = Clock::now();
        p.publish_batch(std::span<const stream::Event>(events).subspan(i, n));
        out.publish_s += seconds_since(ta);
      }
      ScopedSpan s(tracer, "stream.pump", batch);
      const auto tb = Clock::now();
      p.pump(&decisions);
      out.pump_s += seconds_since(tb);
    }
  }
  out.wall_s = seconds_since(t0);
  out.digest = digest(decisions);
  out.stats = p.stats();
  const auto& driver = p.placer_driver();
  for (std::size_t s = 0; s < driver.shard_count(); ++s) {
    out.ks_checks += driver.shard_regime(s).checks;
  }
  return out;
}

/// Per-layer numbers of the stream/stats/core layers, from replays of the
/// probe events outside the daemon. Workloads without probe events (no
/// stream layer) report them as 0.
void probe_layers(const WorkloadSpec& spec, Result& r, Tracer& tracer) {
  std::vector<stream::Event> events;
  if (spec.probe_events) events = spec.probe_events();
  ProbeRun plain;
  ProbeRun timed;
  ProbeRun no_ks;
  double core_s = 0.0;
  std::size_t core_n = 0;
  double accounted = 0.0;
  if (!events.empty()) {
    const stream::PipelineConfig cfg = spec.serve.pipeline;
    Tracer off(false);
    obs::set_enabled(false);
    (void)probe_replay(spec, events, cfg, false, off);  // warm caches, pool
    // Two of each, alternated; the faster of each pair is compared, so a
    // slow stretch of the host does not land on one side only.
    plain = probe_replay(spec, events, cfg, false, off);
    timed = probe_replay(spec, events, cfg, true, off);
    const ProbeRun plain2 = probe_replay(spec, events, cfg, false, off);
    const ProbeRun timed2 = probe_replay(spec, events, cfg, true, off);
    if (plain2.wall_s < plain.wall_s) plain = plain2;
    if (timed2.publish_s + timed2.pump_s < timed.publish_s + timed.pump_s) {
      timed = timed2;
    }
    stream::PipelineConfig ablated = cfg;
    ablated.placer.regime_check_period = 0;
    no_ks = probe_replay(spec, events, ablated, false, off);

    // Direct decides on the core facade: the same trip-ends, no stream.
    Built direct = spec.build();
    std::vector<OnlineDecision> core_decisions;
    const auto tc = Clock::now();
    for (const auto& e : events) {
      if (e.kind != stream::EventKind::kTripEnd) continue;
      core_decisions.push_back(
          direct.system->handle_request(e.where, e.weight));
    }
    core_s = seconds_since(tc);
    core_n = core_decisions.size();
    obs::set_enabled(true);
    const ProbeRun traced = probe_replay(spec, events, cfg, true, tracer);

    r.check(no_ks.digest == plain.digest,
            "probe replay: decisions identical without the stream KS check");
    r.check(digest(core_decisions) == plain.digest,
            "probe replay: stream decisions equal direct ESharing decides");
    r.check(timed.digest == plain.digest && traced.digest == plain.digest,
            "probe replay: the unrolled publish/pump loop equals "
            "Pipeline::replay");
    accounted = ratio(timed.publish_s + timed.pump_s, plain.wall_s);
    r.check(std::abs(1.0 - accounted) <= kAccountingTolerance,
            fmt("probe replay: timed publish_batch + pump calls add up to "
                "%.1f%% of Pipeline::replay's wall time (tolerance %.0f%%)",
                100.0 * accounted, 100.0 * kAccountingTolerance));
    r.note(fmt("probe replay: %.0f events, %.1f ms Pipeline::replay, %.1f ms "
               "unrolled, %.1f ms without KS",
               static_cast<double>(events.size()), plain.wall_s * 1e3,
               timed.wall_s * 1e3, no_ks.wall_s * 1e3));
  }

  const double ks_s = plain.wall_s - no_ks.wall_s;
  const auto rounds = static_cast<double>(timed.stats.pump_rounds);
  r.metric("stats.ks_checks", static_cast<double>(plain.ks_checks), "count",
           "lower");
  r.metric("stats.ks_ms_per_check",
           ratio(ks_s * 1e3, static_cast<double>(plain.ks_checks)), "ms",
           "lower");
  r.metric("stats.ks_share", ratio(ks_s, plain.wall_s), "ratio", "lower");
  r.metric("stream.publish_us_per_event",
           ratio(timed.publish_s * 1e6, static_cast<double>(events.size())),
           "us", "lower");
  r.metric("stream.pump_ms_per_round", ratio(timed.pump_s * 1e3, rounds), "ms",
           "lower");
  r.metric("stream.events_per_round",
           ratio(static_cast<double>(timed.stats.merged_events), rounds),
           "count", "higher");
  r.metric("stream.merge_stalls", static_cast<double>(timed.stats.merge_stalls),
           "count", "lower");
  r.metric("stream.lane_occupancy", timed.stats.lane_occupancy, "ratio",
           "higher");
  r.metric("stream.accounted_share", accounted, "ratio", "higher");
  if (core_n > 0) {
    r.metric("core.decide_us",
             ratio(core_s * 1e6, static_cast<double>(core_n)), "us", "lower");
  }
}

}  // namespace

void run_workload(const WorkloadSpec& spec, const Args& args, Result& r) {
  exec::set_global_threads(spec.pool_width);
  obs::set_enabled(args.trace);
  obs::Registry::global().reset();
  Tracer tracer(args.trace);
  const std::string dir = args.work_dir + "/" + spec.name + "-" +
                          std::to_string(static_cast<long>(::getpid()));
  make_dirs(dir);

  // 1. Set-up, repeated in three blocks: here, after the bulk phase and
  // after the live phase, so a slow stretch of the host shorter than the
  // run moves only some of the repeats. The system built last in this
  // first block is the one that runs.
  const std::size_t block = (spec.setup_repeats + 2) / 3;
  SetupResult setup;
  repeated_setup(spec.build, block, setup);
  Built built = std::move(setup.built);

  // 2. Bulk phase.
  BulkResult bulk = spec.bulk(built, tracer);
  const obs::Snapshot after_bulk = obs::Registry::global().snapshot();
  r.op(true, bulk.decisions.count());
  // Further passes on fresh systems add hour samples; their decisions must
  // repeat the first pass's. The first pass's system goes live.
  for (std::size_t pass = 1; pass < spec.bulk_passes; ++pass) {
    Built fresh = spec.build();
    const BulkResult again = spec.bulk(fresh, tracer);
    r.check(again.decisions == bulk.decisions,
            "bulk phase: pass " + std::to_string(pass + 1) +
                " decides as the first");
    bulk.hour_ms.insert(bulk.hour_ms.end(), again.hour_ms.begin(),
                        again.hour_ms.end());
    bulk.hour_events.insert(bulk.hour_events.end(), again.hour_events.begin(),
                            again.hour_events.end());
  }
  if (!bulk.invariant.empty()) {
    r.check(bulk.violations == 0,
            "bulk phase: " + bulk.invariant + " (" +
                std::to_string(bulk.violations) + " violations)");
  }
  const SystemState state = save_state(*built.system);
  repeated_setup(spec.build, block, setup);

  // 3. Live phase, with its own reference (and 4. checkpoint, restores).
  const LiveOutcome lv = live_phase(spec, args, built, state, dir, r);
  repeated_setup(spec.build, spec.setup_repeats - 2 * block, setup);
  const LiveResult& live = lv.live;

  // 5. The bulk phase's reference, at pool width 1.
  exec::set_global_threads(1);
  if (spec.reference_bulk) {
    Built fresh = spec.build();
    r.check(spec.reference_bulk(fresh) == bulk.decisions,
            "bulk phase: " + std::to_string(bulk.decisions.count()) +
                " decisions equal the reference's");
  }
  exec::set_global_threads(spec.pool_width);

  const Summary hours = summarize(bulk.hour_ms);
  const Summary lo_s = summarize(live.decide_ms[0]);
  const Summary hi_s = summarize(live.decide_ms[1]);
  const Summary pub = summarize(live.publish_ms);
  // Throughput of the median hour: one slow stretch of a shared machine
  // moves it less than total events over total time.
  std::vector<double> hour_rate;
  for (std::size_t h = 0; h < bulk.hour_ms.size(); ++h) {
    hour_rate.push_back(ratio(bulk.hour_events[h] * 1e3, bulk.hour_ms[h]));
  }
  const RestoreResult& rr = lv.restores;
  note_summary(r, "bulk hours", hours, bulk.hour_ms);
  note_summary(r, "lo decides @" + fmt("%.0f/s", kLoRate), lo_s,
               live.decide_ms[0]);
  note_summary(r, "hi decides @" + fmt("%.0f/s", kHiRate), hi_s,
               live.decide_ms[1]);
  if (lv.frames > 0) note_summary(r, "publish frames", pub, live.publish_ms);
  r.note(fmt("bulk: %.0f pass(es), the first %.0f events in %.3f s; median "
             "hour %.0f events/s",
             static_cast<double>(spec.bulk_passes),
             static_cast<double>(bulk.events), bulk.wall_s,
             median(hour_rate)));
  r.note(fmt("set-up: %.0f repeats, median %.4f s (min %.4f, max %.4f)",
             static_cast<double>(setup.setup_s.size()), median(setup.setup_s),
             percentile(setup.setup_s, 0.0), percentile(setup.setup_s, 100)));
  r.note(fmt("restores: %.0f, median %.4f s",
             static_cast<double>(rr.recover_s.size()), median(rr.recover_s)));
  r.note(fmt("generator lateness: p50 %.4f ms, p99 %.4f ms, max %.4f ms",
             percentile(live.late_ms, 50), percentile(live.late_ms, 99),
             percentile(live.late_ms, 100)));
  r.note(fmt("live: %.0f decides, %.0f frames, %.0f unanswered, %.0f short acks",
             static_cast<double>(lv.decides), static_cast<double>(lv.frames),
             static_cast<double>(live.unanswered),
             static_cast<double>(live.short_acks)));

  if (!args.trace) {
    r.metric("setup_s", median(setup.setup_s), "s", "lower");
    r.metric("peak_rss_mb", lv.peak_rss_mb, "MiB", "lower");
    r.metric("cost", lv.cost, "cost", "lower");
    r.metric("events_per_s", median(hour_rate), "1/s", "higher");
    r.metric("hour_p50_ms", hours.p50, "ms", "lower");
    r.metric("lo_p50_ms", lo_s.p50, "ms", "lower");
    r.metric("hi_p50_ms", hi_s.p50, "ms", "lower");
    remove_tree(dir);
    return;
  }

  // Traced run: the bulk phase again, untraced with obs off, at the
  // workload's pool width and at width 1 (identical decisions).
  BulkResult wide;
  BulkResult narrow;
  {
    Tracer off(false);
    obs::set_enabled(false);
    Built a = spec.build();
    wide = spec.bulk(a, off);
    exec::set_global_threads(1);
    Built b = spec.build();
    narrow = spec.bulk(b, off);
    exec::set_global_threads(spec.pool_width);
    obs::set_enabled(true);
  }
  r.check(wide.decisions == bulk.decisions &&
              narrow.decisions == bulk.decisions,
          "bulk phase: decisions identical untraced and at pool width 1 "
          "and " + std::to_string(spec.pool_width));
  r.note(fmt("bulk untraced: %.3f s at width %.0f, %.3f s at width 1",
             wide.wall_s, static_cast<double>(spec.pool_width),
             narrow.wall_s));
  r.metric("exec.width1_ratio", ratio(narrow.wall_s, wide.wall_s), "ratio",
           "higher");
  r.metric("trace.overhead_ratio", ratio(bulk.wall_s, wide.wall_s), "ratio",
           "lower");
  if (!wide.decide_ms.empty()) {
    r.metric("core.decide_us",
             ratio(sum(wide.decide_ms) * 1e3,
                   static_cast<double>(wide.decisions.count())),
             "us", "lower");
  }
  probe_layers(spec, r, tracer);

  r.metric("recover_s", median(rr.recover_s), "s", "lower");
  // Too unsteady across runs for a bound (README, "Left out of the
  // bounded set"); the traced run reports them without one.
  r.metric("hour_tail_ms", hours.tail, "ms", "lower");
  r.metric("lo_tail_ms", lo_s.tail, "ms", "lower");
  r.metric("hi_tail_ms", hi_s.tail, "ms", "lower");
  r.metric("publish_p50_ms", pub.p50, "ms", "lower");
  r.metric("publish_tail_ms", pub.tail, "ms", "lower");
  std::vector<double> all = live.decide_ms[0];
  all.insert(all.end(), live.decide_ms[1].begin(), live.decide_ms[1].end());
  {
    r.note(fmt("daemon decide p50 from serve.decide.latency_seconds: %.4f "
               "ms, interpolated inside the bucket (%.3f, %.3f] ms",
               lv.daemon_p50_ms, lv.daemon_bucket_lo_ms,
               lv.daemon_bucket_hi_ms));
  }
  const double reused = static_cast<double>(
      counter(after_bulk, "solver.cost_oracle.rows_reused"));
  const double invalidated = static_cast<double>(
      counter(after_bulk, "solver.cost_oracle.rows_invalidated"));
  r.metric("serve.client_send_us", median(live.send_us), "us", "lower");
  r.metric("serve.daemon_decide_p50_ms", lv.daemon_p50_ms, "ms", "lower");
  r.metric("serve.transport_p50_ms", median(all) - lv.daemon_p50_ms, "ms",
           "lower");
  r.metric("stream.rounds_per_decide",
           ratio(lv.pump_rounds, static_cast<double>(lv.decides)), "count",
           "lower");
  r.metric("serve.gen_late_p99_ms", percentile(live.late_ms, 99), "ms",
           "lower");
  r.metric("serve.checkpoint_ms", lv.checkpoint_ms, "ms", "lower");
  r.metric("serve.checkpoint_bytes", static_cast<double>(lv.checkpoint_bytes),
           "bytes", "lower");
  r.metric("serve.bootstrap_ms", median(rr.bootstrap_ms), "ms", "lower");
  r.metric("serve.restore_ms", median(rr.restore_ms), "ms", "lower");
  r.metric("ml.forecast_ms", median(bulk.forecast_ms), "ms", "lower");
  r.metric("solver.reanchor_ms", median(bulk.reanchor_ms), "ms", "lower");
  r.metric("solver.rows_reused_ratio", ratio(reused, reused + invalidated),
           "ratio", "higher");
  r.metric("solver.warm_ratio",
           ratio(static_cast<double>(
                     counter(after_bulk, "solver.reopt.warm_solves")),
                 static_cast<double>(
                     counter(after_bulk, "solver.reopt.epochs"))),
           "ratio", "higher");
  r.metric("solver.plan_offline_s", median(setup.plan_s), "s", "lower");
  r.metric("data.city_gen_s", median(setup.gen_s), "s", "lower");
  const std::string spans = args.work_dir + "/" + spec.name + "-seed" +
                            std::to_string(args.seed) + ".spans.jsonl";
  if (tracer.write_jsonl(spans)) {
    r.note("spans: " + std::to_string(tracer.size()) + " written to " + spans);
  }
  for (const auto& [name, t] : tracer.totals()) {
    r.note("span " + name +
           fmt(": n=%.0f total %.3f ms self %.3f ms",
               static_cast<double>(t.count), t.total_ms, t.self_ms));
  }
  remove_tree(dir);
}

}  // namespace perfbench
