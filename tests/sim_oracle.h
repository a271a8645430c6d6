// Event-driven reference for the single-server FIFO pipeline of
// sim/components.h. A general discrete-event kernel (a time-ordered event
// queue with insertion-order tie-breaking) drives transaction-level
// components: a trace source, a bounded FIFO and a frequency-scaled PE
// server. It is slow (a heap entry and a closure per event) but obviously
// right, so the tests pin sim::run_fifo_pipeline and sim::run_dvs_pipeline to
// it bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/components.h"
#include "trace/traces.h"

namespace wlc::sim::oracle {

class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  void schedule(TimeSec t, Handler fn) {
    WLC_REQUIRE(t >= now_, "cannot schedule into the past");
    WLC_REQUIRE(fn != nullptr, "handler must be callable");
    queue_.push(Entry{t, next_seq_++, std::move(fn)});
  }
  /// Schedules `fn` `dt` seconds from now.
  void schedule_in(TimeSec dt, Handler fn) { schedule(now_ + dt, std::move(fn)); }

  /// Runs events in time order until the queue drains or the next event is
  /// past `until`. Returns the number of events executed.
  std::int64_t run(TimeSec until = 1e300) {
    std::int64_t executed = 0;
    while (!queue_.empty() && queue_.top().t <= until) {
      // priority_queue::top() is const; move out via const_cast is UB-adjacent,
      // so copy the handler (cheap relative to simulated work).
      Entry e = queue_.top();
      queue_.pop();
      now_ = e.t;
      e.fn();
      ++executed;
    }
    if (!queue_.empty() && now_ < until) now_ = until;
    return executed;
  }

  TimeSec now() const { return now_; }
  bool empty() const { return queue_.empty(); }

 private:
  struct Entry {
    TimeSec t;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  TimeSec now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

/// Work item flowing through the pipeline (a macroblock in the case study).
struct Item {
  TimeSec arrival = 0.0;
  Cycles demand = 0;
};

/// Bounded FIFO with a high-water mark. capacity == 0 means unbounded.
class Fifo {
 public:
  explicit Fifo(std::int64_t capacity = 0) : capacity_(capacity) {
    WLC_REQUIRE(capacity >= 0, "capacity must be non-negative (0 = unbounded)");
  }

  /// Returns false (and counts an overflow) if the buffer is full.
  bool push(const Item& item) {
    if (capacity_ > 0 && size() >= capacity_) {
      ++overflows_;
      return false;
    }
    items_.push_back(item);
    max_backlog_ = std::max(max_backlog_, size());
    return true;
  }
  bool empty() const { return items_.empty(); }
  std::int64_t size() const { return static_cast<std::int64_t>(items_.size()); }
  Item pop() {
    WLC_REQUIRE(!items_.empty(), "pop from empty FIFO");
    Item item = items_.front();
    items_.pop_front();
    return item;
  }

  std::int64_t capacity() const { return capacity_; }
  std::int64_t max_backlog() const { return max_backlog_; }
  std::int64_t overflows() const { return overflows_; }

 private:
  std::int64_t capacity_;
  std::deque<Item> items_;
  std::int64_t max_backlog_ = 0;
  std::int64_t overflows_ = 0;
};

/// Emits a fixed item sequence into a FIFO at the items' arrival times and
/// pokes the server on every arrival.
class TraceSource {
 public:
  TraceSource(Simulator& sim, Fifo& out, std::function<void()> on_arrival)
      : sim_(sim), out_(out), on_arrival_(std::move(on_arrival)) {}

  /// Schedules the whole trace (arrival times must be non-decreasing).
  void load(const trace::EventTrace& events) {
    WLC_REQUIRE(trace::is_time_ordered(events), "trace must be time-ordered");
    for (const auto& e : events) {
      WLC_REQUIRE(e.demand >= 0, "demands must be non-negative");
      sim_.schedule(e.time, [this, e] {
        out_.push(Item{e.time, e.demand});
        if (on_arrival_) on_arrival_();
      });
    }
  }

 private:
  Simulator& sim_;
  Fifo& out_;
  std::function<void()> on_arrival_;
};

/// Work-conserving PE: whenever idle and the FIFO is non-empty, pops one
/// item and busies itself for demand/frequency seconds, at a fixed clock or
/// at the clock a DvsPolicy picks from the backlog at service start.
class PeServer {
 public:
  PeServer(Simulator& sim, Fifo& in, Hertz frequency)
      : sim_(sim), in_(in), frequency_(frequency) {
    WLC_REQUIRE(frequency > 0.0, "PE frequency must be positive");
  }

  /// Replaces the fixed clock by a DVS policy.
  void set_dvs_policy(DvsPolicy policy) {
    WLC_REQUIRE(policy != nullptr, "policy must be callable");
    dvs_ = std::move(policy);
  }

  /// Call when new work may be available (TraceSource's on_arrival).
  void kick() {
    if (!busy_) start_next();
  }

  std::int64_t completed() const { return completed_; }
  TimeSec busy_time() const { return busy_time_; }
  TimeSec max_latency() const { return max_latency_; }
  double energy() const { return energy_; }

 private:
  void start_next() {
    if (in_.empty()) {
      busy_ = false;
      return;
    }
    // The policy sees the backlog before the pop (the item it will serve plus
    // everything queued behind it).
    const Hertz f = dvs_ ? dvs_(in_.size()) : frequency_;
    WLC_REQUIRE(f > 0.0, "DVS policy returned a non-positive clock");
    const Item item = in_.pop();
    busy_ = true;
    const TimeSec service = static_cast<double>(item.demand) / f;
    busy_time_ += service;
    energy_ += static_cast<double>(item.demand) * f * f;  // κ=1, cubic power law
    sim_.schedule_in(service, [this, item] {
      ++completed_;
      max_latency_ = std::max(max_latency_, sim_.now() - item.arrival);
      start_next();
    });
  }

  Simulator& sim_;
  Fifo& in_;
  Hertz frequency_;
  DvsPolicy dvs_;
  bool busy_ = false;
  std::int64_t completed_ = 0;
  TimeSec busy_time_ = 0.0;
  TimeSec max_latency_ = 0.0;
  double energy_ = 0.0;
};

inline PipelineStats run_pipeline(const trace::EventTrace& events, Hertz frequency,
                                  DvsPolicy policy, std::int64_t capacity) {
  Simulator sim;
  Fifo fifo(capacity);
  PeServer server(sim, fifo, frequency);
  if (policy) server.set_dvs_policy(std::move(policy));
  TraceSource source(sim, fifo, [&server] { server.kick(); });
  source.load(events);
  sim.run();

  PipelineStats stats;
  stats.max_backlog = fifo.max_backlog();
  stats.overflows = fifo.overflows();
  stats.completed = server.completed();
  stats.makespan = sim.now();
  stats.max_latency = server.max_latency();
  stats.utilization = stats.makespan > 0.0 ? server.busy_time() / stats.makespan : 0.0;
  stats.energy = server.energy();
  return stats;
}

inline PipelineStats run_fifo_pipeline(const trace::EventTrace& events, Hertz frequency,
                                       std::int64_t capacity = 0) {
  return run_pipeline(events, frequency, nullptr, capacity);
}

inline PipelineStats run_dvs_pipeline(const trace::EventTrace& events, DvsPolicy policy,
                                      std::int64_t capacity = 0) {
  WLC_REQUIRE(policy != nullptr, "DVS pipeline needs a policy");
  return run_pipeline(events, 1.0, std::move(policy), capacity);
}

}  // namespace wlc::sim::oracle
