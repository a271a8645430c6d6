#include "sim/components.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"

namespace wlc::sim {

namespace {

PipelineStats run_pipeline(const trace::EventTrace& events, Hertz frequency,
                           const DvsPolicy& policy, std::int64_t capacity) {
  WLC_REQUIRE(capacity >= 0, "capacity must be non-negative (0 = unbounded)");
  WLC_REQUIRE(frequency > 0.0, "PE frequency must be positive");
  WLC_REQUIRE(trace::is_time_ordered(events), "trace must be time-ordered");
  // The whole trace is checked before the policy is first called.
  for (const auto& e : events) {
    WLC_REQUIRE(e.demand >= 0, "demands must be non-negative");
    WLC_REQUIRE(e.time >= 0.0, "trace timestamps must be non-negative");
  }

  PipelineStats stats;
  std::vector<std::size_t> fifo;  // indices into events; [head, end) are waiting
  fifo.reserve(events.size());
  std::size_t head = 0;
  bool busy = false;
  std::size_t serving = 0;  // item in service while busy
  TimeSec done = 0.0;       // its completion instant
  TimeSec now = 0.0;
  TimeSec busy_time = 0.0;

  const auto start_next = [&] {
    busy = head < fifo.size();
    if (!busy) return;
    const Hertz f = policy ? policy(static_cast<std::int64_t>(fifo.size() - head)) : frequency;
    WLC_REQUIRE(f > 0.0, "DVS policy returned a non-positive clock");
    serving = fifo[head++];
    const double demand = static_cast<double>(events[serving].demand);
    const TimeSec service = demand / f;
    busy_time += service;
    stats.energy += demand * f * f;  // κ=1, cubic power law
    done = now + service;
  };
  const auto complete = [&] {
    now = done;
    ++stats.completed;
    stats.max_latency = std::max(stats.max_latency, now - events[serving].time);
    start_next();
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    // A completion at this arrival's own instant runs after it.
    while (busy && done < events[i].time) complete();
    now = events[i].time;
    const auto waiting = static_cast<std::int64_t>(fifo.size() - head);
    if (capacity > 0 && waiting >= capacity) {
      ++stats.overflows;
      continue;
    }
    fifo.push_back(i);
    stats.max_backlog = std::max(stats.max_backlog, waiting + 1);
    if (!busy) start_next();
  }
  while (busy) complete();

  stats.makespan = now;
  stats.utilization = stats.makespan > 0.0 ? busy_time / stats.makespan : 0.0;
  return stats;
}

}  // namespace

PipelineStats run_fifo_pipeline(const trace::EventTrace& events, Hertz frequency,
                                std::int64_t capacity) {
  return run_pipeline(events, frequency, nullptr, capacity);
}

PipelineStats run_dvs_pipeline(const trace::EventTrace& events, DvsPolicy policy,
                               std::int64_t capacity) {
  WLC_REQUIRE(policy != nullptr, "DVS pipeline needs a policy");
  return run_pipeline(events, 1.0, policy, capacity);
}

}  // namespace wlc::sim
