#include "serving.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cmath>
#include <exception>
#include <thread>

#include "serve/protocol.h"
#include "stats/rng.h"

namespace perfbench {

void repeated_setup(const BuildFn& build, std::size_t repeats,
                    SetupResult& out) {
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    out.built = build();
    out.setup_s.push_back(seconds_since(t0));
    out.gen_s.push_back(out.built.gen_s);
    out.plan_s.push_back(out.built.plan_s);
  }
}

void set_deadline(const serve::ServeClient& client, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Schedule make_schedule(const std::vector<stream::Event>& trip_ends,
                       const Phase& warmup, const std::vector<Phase>& phases,
                       bool publish_frames, std::uint64_t seed) {
  constexpr std::size_t kGroup = 8;  // decides per publish frame
  esharing::stats::Rng rng(seed ^ 0x5eedf00dULL);
  Schedule s;
  std::size_t next = 0;
  const auto take = [&]() -> stream::Event {
    if (next >= trip_ends.size()) {
      throw std::logic_error("make_schedule: trip-end stream too short");
    }
    return trip_ends[next++];
  };
  double start = 0.0;
  std::vector<std::pair<int, Phase>> all{{-1, warmup}};
  for (std::size_t p = 0; p < phases.size(); ++p) {
    all.emplace_back(static_cast<int>(p), phases[p]);
  }
  for (const auto& [index, phase] : all) {
    const auto groups = static_cast<std::size_t>(
        std::llround(phase.rate * phase.seconds / kGroup));
    const double gap = 1.0 / phase.rate;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t k = 0; k < kGroup; ++k) {
        Item decide;
        decide.events.push_back(take());
        decide.events.front().ref = static_cast<std::int64_t>(s.decides + 1);
        decide.due_s =
            start + static_cast<double>(g * kGroup + k) * gap;
        decide.phase = index;
        s.items.push_back(std::move(decide));
        ++s.decides;
      }
      if (!publish_frames) continue;
      Item frame;
      frame.publish = true;
      frame.phase = index;
      frame.due_s = s.items.back().due_s + 0.5 * gap;
      for (std::size_t k = 0; k < kGroup; ++k) {
        stream::Event trip = take();
        stream::Event battery;
        battery.kind = stream::EventKind::kBatteryLevel;
        battery.time = trip.time;
        battery.where = trip.where;
        battery.bike_id = static_cast<std::int64_t>(rng.index(5000));
        battery.soc = rng.uniform(0.05, 0.95);
        trip.ref = 0;
        frame.events.push_back(battery);
        frame.events.push_back(trip);
      }
      s.items.push_back(std::move(frame));
      ++s.frames;
    }
    start += static_cast<double>(groups * kGroup) * gap;
  }
  s.trip_ends_used = next;
  return s;
}

LiveResult drive_open_loop(std::uint16_t port, const Schedule& schedule,
                           std::size_t n_phases) {
  LiveResult res;
  res.decide_ms.resize(n_phases);
  res.replies.resize(schedule.decides);
  res.answered.assign(schedule.decides, false);

  std::vector<const Item*> decide_items;
  std::vector<const Item*> frame_items;
  for (const Item& it : schedule.items) {
    (it.publish ? frame_items : decide_items).push_back(&it);
  }

  serve::ServeClient client = serve::ServeClient::connect(port);
  set_deadline(client, kCallDeadlineS);
  // Start a little in the future so the reader is parked in recv() first.
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  const auto at = [t0](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };
  const auto ms_after = [](Clock::time_point due, Clock::time_point now) {
    return std::chrono::duration<double, std::milli>(now - due).count();
  };

  std::size_t acks = 0;
  std::thread reader([&] {
    const std::size_t expected = schedule.decides + schedule.frames;
    std::size_t received = 0;
    try {
      while (received < expected) {
        const serve::Message m = client.recv();
        const auto now = Clock::now();
        ++received;
        if (m.type == serve::MsgType::kDecision) {
          const auto ref = m.decision.ref;
          if (ref < 1 || static_cast<std::size_t>(ref) > schedule.decides) {
            ++res.errors;
            continue;
          }
          const auto i = static_cast<std::size_t>(ref - 1);
          const Item& it = *decide_items[i];
          res.answered[i] = true;
          res.replies[i] = {m.decision.opened,
                            static_cast<std::size_t>(m.decision.facility),
                            m.decision.connection_cost};
          if (it.phase >= 0) {
            res.decide_ms[static_cast<std::size_t>(it.phase)].push_back(
                ms_after(at(it.due_s), now));
          }
        } else if (m.type == serve::MsgType::kPublishAck) {
          // Acks come back in frame order: the daemon's reader thread
          // answers each publish frame before it reads the next frame.
          if (acks >= frame_items.size()) {
            ++res.errors;
            continue;
          }
          const Item& it = *frame_items[acks++];
          if (m.accepted != it.events.size()) ++res.short_acks;
          if (it.phase >= 0) res.publish_ms.push_back(ms_after(at(it.due_s), now));
        } else {
          ++res.errors;
        }
      }
    } catch (const std::exception&) {
      // Deadline passed or the daemon went away: the rest stay unanswered.
    }
  });

  try {
    for (const Item& it : schedule.items) {
      const auto due = at(it.due_s);
      std::this_thread::sleep_until(due);
      const auto sent_at = Clock::now();
      res.late_ms.push_back(ms_after(due, sent_at));
      if (it.publish) {
        client.send(serve::encode_publish_events(it.events));
      } else {
        client.send(serve::encode_decide(it.events.front()));
        res.send_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - sent_at)
                .count());
      }
    }
  } catch (const std::exception&) {
    // Send deadline or a dead daemon; unsent items count as unanswered.
  }
  reader.join();
  for (const bool a : res.answered) {
    if (!a) ++res.unanswered;
  }
  res.unanswered += frame_items.size() - acks;
  return res;
}

void flatten(const std::vector<Item>& items, std::vector<stream::Event>& seq,
             std::vector<std::size_t>& decide_trip_index) {
  std::size_t trips = 0;
  for (const Item& it : items) {
    for (const stream::Event& e : it.events) {
      if (!it.publish) decide_trip_index.push_back(trips);
      if (e.kind == stream::EventKind::kTripEnd) ++trips;
      seq.push_back(e);
    }
  }
}

void repeated_restore(const BuildFn& build, const serve::ServeConfig& config,
                      const std::string& checkpoint,
                      const std::string& work_dir,
                      const std::vector<stream::Event>& continuation,
                      std::size_t repeats, RestoreResult& out) {
  for (std::size_t r = 0; r < repeats; ++r) {
    serve::ServeConfig cfg = config;
    cfg.checkpoint_path = work_dir + "/restore-" +
                          std::to_string(out.answers.size()) + ".ckpt";
    auto& answers = out.answers.emplace_back();
    if (!copy_file(checkpoint, cfg.checkpoint_path)) continue;
    const auto t0 = Clock::now();
    Built built = build();
    const auto t1 = Clock::now();
    serve::ServeDaemon daemon(*built.system, built.ks_history, cfg);
    daemon.start();
    const auto t2 = Clock::now();
    try {
      serve::ServeClient client = serve::ServeClient::connect(daemon.port());
      set_deadline(client, kCallDeadlineS);
      for (std::size_t i = 0; i < continuation.size(); ++i) {
        const serve::DecisionReply d = client.decide(continuation[i]);
        if (i == 0) {
          out.recover_s.push_back(seconds_since(t0));
          out.bootstrap_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          out.restore_ms.push_back(
              std::chrono::duration<double, std::milli>(t2 - t1).count());
        }
        answers.push_back({d.opened, static_cast<std::size_t>(d.facility),
                           d.connection_cost});
      }
      client.shutdown();
    } catch (const std::exception&) {
      daemon.request_stop();  // the missing answers count as failures
    }
    daemon.wait();
  }
}

double timed_checkpoint(std::uint16_t port) {
  try {
    serve::ServeClient ctl = serve::ServeClient::connect(port);
    set_deadline(ctl, kCallDeadlineS);
    const auto t0 = Clock::now();
    ctl.checkpoint_now();
    return seconds_since(t0) * 1e3;
  } catch (const std::exception&) {
    return -1.0;
  }
}

bool stop_daemon(serve::ServeDaemon& daemon) {
  bool ok = true;
  try {
    serve::ServeClient ctl = serve::ServeClient::connect(daemon.port());
    set_deadline(ctl, kCallDeadlineS);
    ctl.shutdown();
  } catch (const std::exception&) {
    ok = false;
    daemon.request_stop();
  }
  daemon.wait();
  return ok;
}

}  // namespace perfbench
