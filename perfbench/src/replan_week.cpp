/// replan_week: ESharing driven directly, no stream layer. Set-up generates a
/// 15-day data::SyntheticCity (the paper's Mobike-schema generator), bins
/// week 1 to the 100 m grid and plans offline. The bulk phase walks week 2
/// hour by hour: forecast next-hour demand with the batched LSTM
/// (core::forecast_grid_demand), re-plan with ESharing::reanchor, then
/// decide that hour's trip-ends with ESharing::handle_request (placer
/// defaults, KS every 200 requests). Pool width 2. Why: `solver` (warm
/// re-optimization) and `ml` do most of the bulk work, `stats` little,
/// `stream` and `serve` none — the bypass side of a KS or pump change. The
/// live phase serves day 15's own trip-ends as decides only, so that
/// lo_p50_ms and hi_p50_ms exist on every workload.

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/demand_forecast.h"
#include "data/binning.h"
#include "data/synthetic_city.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace data = esharing::data;

constexpr int kDays = 15;
constexpr std::size_t kWeekHours = 7 * 24;
constexpr std::size_t kHistoryHours = 48;  // forecast input window
constexpr double kOpeningCost = 10000.0;
/// The city (POIs, trips) is fixed so every seed plans and re-plans an
/// instance of the same size; the seed draws the forecaster's and the
/// placer's randomness.
constexpr std::uint64_t kCitySeed = 2020;

data::CityConfig city_config() {
  data::CityConfig cfg;
  cfg.num_days = kDays;
  return cfg;
}

/// The city's trips with destinations decoded once, plus the hourly
/// (cells x hours) arrival matrix over all days.
struct CityData {
  geo::Grid grid;
  std::vector<data::TripRecord> trips;
  std::vector<geo::Point> dest;
  data::DemandMatrix matrix;
};

std::shared_ptr<CityData> make_city_data() {
  data::SyntheticCity city(city_config(), kCitySeed);
  auto trips = city.generate_trips();
  std::vector<geo::Point> dest;
  dest.reserve(trips.size());
  for (const auto& t : trips) dest.push_back(city.end_point(t));
  auto matrix = data::bin_trips(city.grid(), city.projection(), trips,
                                static_cast<std::size_t>(kDays) * 24);
  return std::make_shared<CityData>(
      CityData{city.grid(), std::move(trips), std::move(dest), std::move(matrix)});
}

esharing::core::GridForecastConfig forecast_config(std::uint64_t seed) {
  esharing::core::GridForecastConfig cfg;
  cfg.engine = esharing::core::ForecastEngine::kLstm;
  cfg.rnn_batch = true;
  // The LSTM is refitted every hour, so its budget sets the hour's cost:
  // 16 cells x 48 h x 4 epochs keeps the week near 5 s on one core pair.
  cfg.top_cells = 16;
  cfg.horizon_hours = 1;
  cfg.rnn_batch_epochs = 4;
  cfg.seed = seed;
  return cfg;
}

/// Week 2, hour by hour. `tracer` may be disabled.
BulkResult run_week(const CityData& d, core::ESharing& system,
                    std::uint64_t seed, Tracer& tracer) {
  BulkResult out;
  out.invariant = "every warm re-plan costs no more than carrying the old plan";
  const auto fcfg = forecast_config(seed);
  std::size_t next = 0;
  const auto week2 = static_cast<data::Seconds>(kWeekHours) * 3600;
  while (next < d.trips.size() && d.trips[next].start_time < week2) ++next;
  for (std::size_t h = kWeekHours; h < 2 * kWeekHours; ++h) {
    // The trailing history window: harness work, outside the hour's time.
    data::DemandMatrix window(d.matrix.n_cells(), kHistoryHours);
    for (std::size_t c = 0; c < d.matrix.n_cells(); ++c) {
      for (std::size_t k = 0; k < kHistoryHours; ++k) {
        const double v = d.matrix.at(c, h - kHistoryHours + k);
        if (v != 0.0) window.add(c, k, v);
      }
    }
    const auto th = Clock::now();
    ScopedSpan hour(tracer, "bulk.hour", h);
    std::vector<data::DemandSite> sites;
    {
      ScopedSpan s(tracer, "ml.forecast_grid_demand", h);
      sites = esharing::core::forecast_grid_demand(window, d.grid, fcfg)
                  .sites(d.grid);
    }
    const auto tf = Clock::now();
    {
      ScopedSpan s(tracer, "solver.ESharing::reanchor", h);
      (void)system.reanchor(sites);
    }
    const auto tr = Clock::now();
    const std::size_t decided_before = out.decisions.count();
    {
      ScopedSpan s(tracer, "core.ESharing::handle_request", h);
      const auto limit = static_cast<data::Seconds>((h + 1) * 3600);
      for (; next < d.trips.size() && d.trips[next].start_time < limit; ++next) {
        out.decisions.add(system.handle_request(d.dest[next]));
      }
    }
    const auto te = Clock::now();
    out.add_hour(std::chrono::duration<double, std::milli>(te - th).count(),
                 out.decisions.count() - decided_before);
    out.forecast_ms.push_back(
        std::chrono::duration<double, std::milli>(tf - th).count());
    out.reanchor_ms.push_back(
        std::chrono::duration<double, std::milli>(tr - tf).count());
    out.decide_ms.push_back(
        std::chrono::duration<double, std::milli>(te - tr).count());
    const auto& st = system.reopt_session().last_stats();
    if (!st.zero_delta && !st.cold && st.final_cost > st.baseline_cost) {
      ++out.violations;
    }
  }
  return out;
}

}  // namespace

WorkloadSpec replan_week(const Args& args) {
  const std::uint64_t seed = args.seed;
  WorkloadSpec spec;
  spec.name = "replan_week";
  spec.pool_width = 2;
  spec.serve.pipeline.bus.shard_count = 2;
  // Decides only, on the esharing-serve defaults: day 15 holds 2,000
  // trip-ends, enough for 1,952 decides (400 warm-up, 752 lo, 800 hi).
  // No publish frames, checkpoints or restores: those are measured on
  // metro_replay.
  spec.live.warmup_s = 0.4;
  spec.live.lo_s = 3.0;
  spec.live.hi_s = 0.8;
  spec.live.publish_frames = false;
  spec.live.restore_repeats = 0;
  spec.setup_repeats = 15;
  // A week takes about 6 s; repeat it so the run lasts about --seconds.
  spec.bulk_passes = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds / 10.0)));

  spec.build = [seed] {
    Built b;
    const auto t0 = Clock::now();
    data::SyntheticCity city(city_config(), kCitySeed);
    const auto trips = city.generate_trips();
    const auto week1 = static_cast<data::Seconds>(kWeekHours) * 3600;
    const auto sites = data::demand_sites_in_window(
        city.grid(), city.projection(), trips, 0, week1);
    b.ks_history = data::destinations_in_window(
        city.projection(), trips, week1 - data::kSecondsPerDay, week1);
    b.gen_s = seconds_since(t0);
    const auto t1 = Clock::now();
    b.system = std::make_unique<core::ESharing>(core::ESharingConfig{}, seed);
    (void)b.system->plan_offline(sites,
                                 [](geo::Point) { return kOpeningCost; });
    b.system->start_online(b.ks_history);
    b.plan_s = seconds_since(t1);
    return b;
  };

  const auto city = make_city_data();
  spec.bulk = [city, seed](Built& b, Tracer& tracer) {
    return run_week(*city, *b.system, seed, tracer);
  };

  // Live traffic: the trip-ends that follow week 2 (day 15), in order.
  spec.live_trip_ends = [city](std::size_t n) {
    const auto week2_end = static_cast<data::Seconds>(2 * kWeekHours) * 3600;
    std::vector<stream::Event> trips;
    for (std::size_t i = 0; i < city->trips.size() && trips.size() < n; ++i) {
      if (city->trips[i].start_time < week2_end) continue;
      stream::Event e;
      e.kind = stream::EventKind::kTripEnd;
      e.time = city->trips[i].start_time;
      e.where = city->dest[i];
      trips.push_back(e);
    }
    return trips;
  };

  return spec;
}

}  // namespace perfbench
