/// metro_replay: a 40 km metro emitting one trip-end per simulated second
/// (the bench_stream_metro shape), replayed through an in-process
/// stream::Pipeline in serving mode, one simulated hour per replay() call.
/// Two shards, lanes = pool width = 2, the stream-side KS regime check every
/// 512 trip-ends per shard; the placer's own KS period is 0 and re-anchoring
/// is off. Why: the 2-D KS scan dominates serving time here, so `stats`
/// does most of the work, `stream` the rest, and `solver` only plans.

#include <memory>

#include "data/trip.h"
#include "stats/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr double kAreaM = 40000.0;
constexpr std::size_t kHotspots = 200;
constexpr std::size_t kHistorySample = 2000;
constexpr std::size_t kBulkHours = 250;
constexpr std::size_t kProbeHours = 100;  // traced run's probe replays
constexpr std::uint64_t kLayoutSeed = 3;

geo::Point clamp_to_area(geo::Point p) {
  p.x = p.x < 0.0 ? 0.0 : (p.x > kAreaM ? kAreaM : p.x);
  p.y = p.y < 0.0 ? 0.0 : (p.y > kAreaM ? kAreaM : p.y);
  return p;
}

struct MetroCity {
  std::vector<geo::Point> hotspots;
  std::vector<double> weights;
  std::vector<geo::Point> history;
};

/// The hotspot layout is fixed, so every seed plans the same city; the seed
/// draws the KS history sample and the event log. Seeds then differ in
/// demand, not in how big the instance is.
MetroCity make_city(std::uint64_t seed) {
  esharing::stats::Rng layout(kLayoutSeed);
  MetroCity c;
  for (std::size_t i = 0; i < kHotspots; ++i) {
    c.hotspots.push_back(
        {layout.uniform(0.0, kAreaM), layout.uniform(0.0, kAreaM)});
    c.weights.push_back(layout.uniform(2.0, 15.0));
  }
  esharing::stats::Rng rng(seed * 7919 + 3);
  for (std::size_t i = 0; i < kHistorySample; ++i) {
    const geo::Point h = c.hotspots[rng.index(kHotspots)];
    c.history.push_back(clamp_to_area(
        {h.x + rng.normal(0.0, 300.0), h.y + rng.normal(0.0, 300.0)}));
  }
  return c;
}

/// One trip-end per simulated second starting at `first_second`: 70% around
/// a hotspot (sigma 300 m), 30% uniform, battery telemetry every 50th.
std::vector<stream::Event> metro_log(const MetroCity& city,
                                     std::uint64_t seed,
                                     std::size_t first_second,
                                     std::size_t n) {
  esharing::stats::Rng rng(seed * 104729 + first_second);
  std::vector<stream::Event> log;
  log.reserve(n + n / 50 + 1);
  for (std::size_t i = first_second; i < first_second + n; ++i) {
    stream::Event e;
    e.kind = stream::EventKind::kTripEnd;
    e.time = static_cast<esharing::data::Seconds>(i);
    if (rng.bernoulli(0.7)) {
      const geo::Point h = city.hotspots[rng.index(kHotspots)];
      e.where = clamp_to_area(
          {h.x + rng.normal(0.0, 300.0), h.y + rng.normal(0.0, 300.0)});
    } else {
      e.where = {rng.uniform(0.0, kAreaM), rng.uniform(0.0, kAreaM)};
    }
    log.push_back(e);
    if (i % 50 == 13) {
      stream::Event b;
      b.kind = stream::EventKind::kBatteryLevel;
      b.time = e.time;
      b.where = e.where;
      b.bike_id = static_cast<std::int64_t>(i % 5000);
      b.soc = rng.uniform(0.05, 0.95);
      log.push_back(b);
    }
  }
  return log;
}

stream::PipelineConfig metro_pipeline() {
  stream::PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  cfg.bus.queue_capacity = 4096;
  cfg.bus.max_batch = 256;
  cfg.placer.state.window_length = 1800;  // 30 min sliding demand window
  cfg.placer.regime_check_period = 512;
  cfg.placer.regime_min_samples = 32;
  cfg.lanes = 0;  // one lane per pool thread
  return cfg;
}

}  // namespace

WorkloadSpec metro_replay(const Args& args) {
  const std::uint64_t seed = args.seed;
  WorkloadSpec spec;
  spec.name = "metro_replay";
  spec.pool_width = 2;
  spec.serve.pipeline = metro_pipeline();
  spec.serve.tunables.checkpoint_every_events = 5000;
  spec.live.lo_s = 0.4 * args.seconds;
  spec.live.hi_s = 0.15 * args.seconds;

  spec.build = [seed] {
    Built b;
    const auto t0 = Clock::now();
    const MetroCity city = make_city(seed);
    b.gen_s = seconds_since(t0);
    const auto t1 = Clock::now();
    esharing::core::ESharingConfig cfg;
    cfg.placer.ks_period = 0;  // the stream-side sharded check replaces it
    cfg.placer.adaptive_type = false;
    b.system = std::make_unique<core::ESharing>(cfg, seed);
    std::vector<esharing::data::DemandSite> sites;
    for (std::size_t i = 0; i < city.hotspots.size(); ++i) {
      sites.push_back({city.hotspots[i], city.weights[i], i});
    }
    (void)b.system->plan_offline(sites, [](geo::Point) { return 15000.0; });
    b.system->start_online(city.history);
    b.ks_history = city.history;
    b.plan_s = seconds_since(t1);
    return b;
  };

  const auto city = std::make_shared<MetroCity>(make_city(seed));
  // Each hour's log is generated when it is replayed, outside the hour's
  // time, so the run never holds more than one hour of it.
  const auto hour_log = [city, seed](std::size_t h) {
    return metro_log(*city, seed, h * 3600, 3600);
  };

  spec.bulk = [hour_log](Built& b, Tracer& tracer) {
    BulkResult out;
    stream::Pipeline p(*b.system, b.ks_history, metro_pipeline());
    for (std::size_t h = 0; h < kBulkHours; ++h) {
      const std::vector<stream::Event> hour = hour_log(h);
      const auto th = Clock::now();
      stream::ReplayResult r;
      {
        ScopedSpan span(tracer, "bulk.hour", h);
        ScopedSpan replay(tracer, "stream.Pipeline::replay", h);
        r = p.replay(hour);
      }
      out.add_hour(seconds_since(th) * 1e3, r.consumed);
      out.decisions.add(r.decisions);
    }
    return out;
  };

  // The stream's KS check never feeds a decision and the placer's own is
  // off, so the bulk phase must decide exactly as direct core decides do.
  spec.reference_bulk = [hour_log](Built& ref) {
    TraceDigest out;
    for (std::size_t h = 0; h < kBulkHours; ++h) {
      for (const auto& e : hour_log(h)) {
        if (e.kind != stream::EventKind::kTripEnd) continue;
        out.add(ref.system->handle_request(e.where, e.weight));
      }
    }
    return out;
  };

  spec.live_trip_ends = [city, seed](std::size_t n) {
    std::vector<stream::Event> trips;
    for (auto& e : metro_log(*city, seed, kBulkHours * 3600, n)) {
      if (e.kind == stream::EventKind::kTripEnd && trips.size() < n) {
        trips.push_back(e);
      }
    }
    return trips;
  };
  spec.probe_events = [hour_log] {
    std::vector<stream::Event> events;
    for (std::size_t h = 0; h < kProbeHours; ++h) {
      const auto hour = hour_log(h);
      events.insert(events.end(), hour.begin(), hour.end());
    }
    return events;
  };

  return spec;
}

}  // namespace perfbench
