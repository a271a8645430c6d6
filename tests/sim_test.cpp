#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mpeg/clip.h"
#include "mpeg/trace_gen.h"
#include "sim/components.h"
#include "sim_oracle.h"

namespace wlc::sim {
namespace {

using oracle::Fifo;
using oracle::Simulator;

/// All seven fields equal, the floating-point ones bit for bit.
::testing::AssertionResult same_stats(const PipelineStats& got, const PipelineStats& want) {
  std::string diff;
  const auto check_int = [&](const char* name, std::int64_t a, std::int64_t b) {
    if (a != b) diff += std::string(" ") + name + " " + std::to_string(a) + " vs " + std::to_string(b);
  };
  const auto check_double = [&](const char* name, double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b))
      diff += std::string(" ") + name + " " + std::to_string(a) + " vs " + std::to_string(b);
  };
  check_int("max_backlog", got.max_backlog, want.max_backlog);
  check_int("overflows", got.overflows, want.overflows);
  check_int("completed", got.completed, want.completed);
  check_double("makespan", got.makespan, want.makespan);
  check_double("max_latency", got.max_latency, want.max_latency);
  check_double("utilization", got.utilization, want.utilization);
  check_double("energy", got.energy, want.energy);
  if (diff.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "loop vs oracle:" << diff;
}

TEST(Kernel, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Kernel, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, HandlersCanScheduleMoreWork) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule_in(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Kernel, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.empty());
}

TEST(Kernel, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(1.0, [&] {
    EXPECT_THROW(sim.schedule(0.5, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Fifo, WatermarkAndOverflow) {
  Fifo f(2);
  EXPECT_TRUE(f.push({0.0, 1}));
  EXPECT_TRUE(f.push({0.0, 2}));
  EXPECT_FALSE(f.push({0.0, 3}));  // full
  EXPECT_EQ(f.overflows(), 1);
  EXPECT_EQ(f.max_backlog(), 2);
  EXPECT_EQ(f.pop().demand, 1);
  EXPECT_TRUE(f.push({0.0, 4}));
  EXPECT_EQ(f.max_backlog(), 2);
}

TEST(Fifo, PopEmptyThrows) {
  Fifo f;
  EXPECT_THROW(f.pop(), std::logic_error);
}

TEST(Pipeline, SingleItemTimings) {
  const trace::EventTrace events{{1.0, 0, 100}};
  const PipelineStats s = run_fifo_pipeline(events, 50.0);
  EXPECT_EQ(s.completed, 1);
  EXPECT_DOUBLE_EQ(s.makespan, 3.0);     // starts at 1.0, 2 s of service
  EXPECT_DOUBLE_EQ(s.max_latency, 2.0);
  EXPECT_EQ(s.max_backlog, 1);
}

TEST(Pipeline, BacklogGrowsUnderBurst) {
  trace::EventTrace events;
  for (int i = 0; i < 10; ++i) events.push_back({0.0, 0, 100});  // all at once
  const PipelineStats s = run_fifo_pipeline(events, 100.0);
  // The first item of the burst goes straight into service, so the queue
  // holds the other nine.
  EXPECT_EQ(s.max_backlog, 9);
  EXPECT_EQ(s.completed, 10);
  EXPECT_DOUBLE_EQ(s.makespan, 10.0);
  EXPECT_DOUBLE_EQ(s.max_latency, 10.0);
  EXPECT_NEAR(s.utilization, 1.0, 1e-12);
}

TEST(Pipeline, BoundedFifoDropsExcess) {
  trace::EventTrace events;
  for (int i = 0; i < 10; ++i) events.push_back({0.0, 0, 100});
  const PipelineStats s = run_fifo_pipeline(events, 100.0, /*capacity=*/4);
  EXPECT_GT(s.overflows, 0);
  EXPECT_LE(s.max_backlog, 4);
}

TEST(Pipeline, LoopMatchesOracleOnRandomTraces) {
  common::Rng rng(606);
  for (int trial = 0; trial < 2000; ++trial) {
    // On even trials a dyadic clock and arrivals on a 1/64 s tick make
    // completions land exactly on arrival instants, which exercises the
    // same-instant tie rule; odd trials cover irregular times and rounding.
    const bool ticked = trial % 2 == 0;
    const Hertz f = ticked ? 64.0 : 97300.7;
    const Cycles max_demand = ticked ? 12 : 12000;
    trace::EventTrace events;
    const auto n = rng.uniform_int(0, 60);
    double t = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(0.4))  // otherwise simultaneous with the previous arrival
        t += ticked ? static_cast<double>(rng.uniform_int(1, 8)) / 64.0 : rng.uniform(0.001, 0.1);
      events.push_back({t, 0, rng.bernoulli(0.2) ? 0 : rng.uniform_int(1, max_demand)});
    }
    const std::int64_t capacity = rng.uniform_int(0, 5);
    ASSERT_TRUE(same_stats(run_fifo_pipeline(events, f, capacity),
                           oracle::run_fifo_pipeline(events, f, capacity)))
        << "trial " << trial << " capacity " << capacity;
    // Two-level governor with a threshold the backlog often sits exactly on.
    const std::int64_t threshold = rng.uniform_int(1, 4);
    const DvsPolicy policy = [=](std::int64_t backlog) {
      return backlog >= threshold ? 2.0 * f : 0.5 * f;
    };
    ASSERT_TRUE(same_stats(run_dvs_pipeline(events, policy, capacity),
                           oracle::run_dvs_pipeline(events, policy, capacity)))
        << "trial " << trial << " capacity " << capacity << " threshold " << threshold;
  }
}

TEST(Pipeline, SimultaneousArrivalsMatchOracle) {
  // Two items at the same instant: the first goes straight into service, so
  // the queue never holds both.
  const trace::EventTrace pair{{0.0, 0, 100}, {0.0, 0, 100}};
  EXPECT_EQ(run_fifo_pipeline(pair, 100.0).max_backlog, 1);
  EXPECT_TRUE(same_stats(run_fifo_pipeline(pair, 100.0), oracle::run_fifo_pipeline(pair, 100.0)));
  // A zero-demand item completes at t = 0, but only after the two other
  // arrivals at t = 0 have queued behind it: both wait at once.
  const trace::EventTrace tie{{0.0, 0, 0}, {0.0, 0, 100}, {0.0, 0, 100}};
  EXPECT_EQ(run_fifo_pipeline(tie, 100.0).max_backlog, 2);
  EXPECT_TRUE(same_stats(run_fifo_pipeline(tie, 100.0), oracle::run_fifo_pipeline(tie, 100.0)));
}

TEST(Pipeline, EmptyTrace) {
  const auto always = [](std::int64_t) { return 10.0; };
  EXPECT_TRUE(same_stats(run_fifo_pipeline({}, 10.0), PipelineStats{}));
  EXPECT_TRUE(same_stats(run_dvs_pipeline({}, always), PipelineStats{}));
}

TEST(Pipeline, RejectsInvalidInputs) {
  const trace::EventTrace ok{{0.0, 0, 10}, {1.0, 0, 10}};
  const auto always = [](std::int64_t) { return 10.0; };
  EXPECT_THROW(run_fifo_pipeline({{1.0, 0, 10}, {0.5, 0, 10}}, 10.0), std::invalid_argument);
  EXPECT_THROW(run_fifo_pipeline({{0.0, 0, 10}, {1.0, 0, -1}}, 10.0), std::invalid_argument);
  EXPECT_THROW(run_fifo_pipeline({{-0.5, 0, 10}, {1.0, 0, 10}}, 10.0), std::invalid_argument);
  EXPECT_THROW(run_fifo_pipeline(ok, 0.0), std::invalid_argument);
  EXPECT_THROW(run_fifo_pipeline(ok, 10.0, -1), std::invalid_argument);
  EXPECT_THROW(run_dvs_pipeline(ok, nullptr), std::invalid_argument);
  EXPECT_THROW(run_dvs_pipeline(ok, [](std::int64_t) { return 0.0; }), std::invalid_argument);
  EXPECT_THROW(run_dvs_pipeline(ok, always, -1), std::invalid_argument);
  // The oracle refuses the same inputs.
  EXPECT_THROW(oracle::run_fifo_pipeline({{-0.5, 0, 10}}, 10.0), std::invalid_argument);
}

TEST(Pipeline, PaperClipsMatchOracleAtFgammaMin) {
  // The paper's stream setup (720x576 @ 25 fps, 48 frames per clip) and the
  // combined clocks GoldenPaper pins: F^γ_min 364.4 MHz, F^w_min 744.3 MHz.
  mpeg::TraceConfig cfg;
  cfg.frames = 48;
  cfg.pe1_frequency = 150e6;
  const std::int64_t buffer = cfg.stream.mb_per_frame();
  const Hertz f_gamma = 364.4e6;
  const Hertz f_wcet = 744.3e6;
  const DvsPolicy two_level = [&](std::int64_t backlog) {
    return backlog > buffer / 8 ? f_wcet : f_gamma;
  };
  const auto& library = mpeg::clip_library();
  for (const char* name : {"music_video", "handheld_street", "surveillance_static"}) {
    const auto profile = std::find_if(library.begin(), library.end(),
                                      [&](const mpeg::ClipProfile& p) { return p.name == name; });
    ASSERT_NE(profile, library.end()) << name;
    const trace::EventTrace events = mpeg::generate_clip_trace(cfg, *profile).pe2_input;

    const PipelineStats unbounded = run_fifo_pipeline(events, f_gamma);
    EXPECT_TRUE(same_stats(unbounded, oracle::run_fifo_pipeline(events, f_gamma))) << name;
    EXPECT_LE(unbounded.max_backlog, buffer) << name;

    const PipelineStats bounded = run_fifo_pipeline(events, f_gamma, buffer);
    EXPECT_TRUE(same_stats(bounded, oracle::run_fifo_pipeline(events, f_gamma, buffer))) << name;
    EXPECT_EQ(bounded.overflows, 0) << name;

    EXPECT_TRUE(same_stats(run_dvs_pipeline(events, two_level),
                           oracle::run_dvs_pipeline(events, two_level)))
        << name;
  }
}

}  // namespace
}  // namespace wlc::sim
