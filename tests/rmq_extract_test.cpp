// Differential suite for the shared sliding-window extraction engine
// (common::SlidingExtrema) and the extraction entry points
// built on it: every fast engine must be bit-identical to the retained
// O(n·|grid|) oracle kernels on every trace shape, grid shape and thread
// count — the oracle is the spec, the index is only allowed to be faster.
// Labelled `rmq`; CI runs it under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rmq.h"
#include "common/thread_pool.h"
#include "runtime/runtime.h"
#include "trace/arrival_extract.h"
#include "trace/traces.h"
#include "workload/extract.h"
#include "workload/workload_curve.h"

namespace wlc {
namespace {

using common::GapEngine;
using workload::WorkloadCurve;

// ---- trace shapes ------------------------------------------------------------

trace::DemandTrace constant_trace(std::size_t n) { return trace::DemandTrace(n, 700); }

trace::DemandTrace bursty_trace(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  trace::DemandTrace d(n);
  for (auto& x : d)
    x = (rng() % 10 == 0) ? 3000 + static_cast<Cycles>(rng() % 2000)
                          : 200 + static_cast<Cycles>(rng() % 700);
  return d;
}

/// Adversarial for the block bounds: the demand alternates with a period of
/// exactly two index blocks, so every block's detrended extrema tie and the
/// pruning pass gets no discrimination — the sweep must still be exact.
trace::DemandTrace sawtooth_trace(std::size_t n) {
  trace::DemandTrace d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = (i % (2 * static_cast<std::size_t>(common::SlidingExtrema<Cycles>::kBlockSize)) <
            static_cast<std::size_t>(common::SlidingExtrema<Cycles>::kBlockSize))
               ? 1000
               : 10;
  return d;
}

trace::TimestampTrace timestamps_from(const trace::DemandTrace& d) {
  trace::TimestampTrace ts(d.size());
  double t = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    t += static_cast<double>(d[i]) * 1e-6;
    ts[i] = t;
  }
  return ts;
}

/// Duplicate timestamps (batch arrivals) are legal inputs: spans of zero
/// width must survive both paths identically.
trace::TimestampTrace duplicated_timestamps(std::size_t n) {
  trace::TimestampTrace ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = static_cast<double>(i / 3) * 1e-3;
  return ts;
}

// ---- grid shapes -------------------------------------------------------------

std::vector<std::vector<std::int64_t>> grids_for(std::int64_t n) {
  std::vector<std::int64_t> dense;
  for (std::int64_t k = 1; k <= std::min<std::int64_t>(n, 64); ++k) dense.push_back(k);
  std::vector<std::int64_t> sparse;
  for (std::int64_t k = 1; k <= n; k = std::max(k + 1, (k * 7) / 4)) sparse.push_back(k);
  return {
      {1},                            // k = 1 only
      {1, n, 3 * n, 10 * n},          // k > n must clamp, not fault
      dense,                          // every k up to 64
      sparse,                         // log-spaced
  };
}

void expect_curves_equal(const WorkloadCurve& a, const WorkloadCurve& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].first, b.points()[i].first) << "point " << i;
    EXPECT_EQ(a.points()[i].second, b.points()[i].second) << "point " << i;
  }
}

// ---- workload curves: every engine × grid × shape × thread count ------------

TEST(RmqDifferential, WorkloadCurvesMatchOracleEverywhere) {
  const struct {
    const char* name;
    trace::DemandTrace d;
  } shapes[] = {
      {"constant", constant_trace(1000)},
      {"bursty", bursty_trace(1500, 42)},
      {"sawtooth", sawtooth_trace(2048)},
      {"single-row", {123}},
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& shape : shapes) {
    const auto n = static_cast<std::int64_t>(shape.d.size());
    for (const auto& ks : grids_for(n)) {
      const WorkloadCurve ref_u = workload::extract_upper_oracle(shape.d, ks);
      const WorkloadCurve ref_l = workload::extract_lower_oracle(shape.d, ks);
      for (GapEngine eng : {GapEngine::Auto, GapEngine::SharedIndex}) {
        SCOPED_TRACE(std::string(shape.name) + " |ks|=" + std::to_string(ks.size()) +
                     " engine=" + std::to_string(static_cast<int>(eng)));
        expect_curves_equal(workload::extract_upper(shape.d, ks, nullptr, nullptr, nullptr, eng),
                            ref_u);
        expect_curves_equal(workload::extract_lower(shape.d, ks, nullptr, nullptr, nullptr, eng),
                            ref_l);
        for (unsigned threads : {1u, 2u, 7u, hw}) {
          common::ThreadPool pool(threads);
          expect_curves_equal(
              workload::extract_upper(shape.d, ks, pool, nullptr, nullptr, nullptr, eng), ref_u);
          expect_curves_equal(
              workload::extract_lower(shape.d, ks, pool, nullptr, nullptr, nullptr, eng), ref_l);
        }
      }
    }
  }
}

// ---- arrival spans: same matrix over timestamp traces -----------------------

TEST(RmqDifferential, ArrivalSpansMatchOracleEverywhere) {
  const struct {
    const char* name;
    trace::TimestampTrace ts;
  } shapes[] = {
      {"uniform", timestamps_from(constant_trace(1000))},
      {"bursty", timestamps_from(bursty_trace(1500, 7))},
      {"duplicates", duplicated_timestamps(900)},
      {"single-row", {0.25}},
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& shape : shapes) {
    const auto n = static_cast<std::int64_t>(shape.ts.size());
    for (auto ks : grids_for(n)) {
      // Span grids must satisfy 1 <= k <= n (clamping is the workload
      // extractor's job); drop the over-length entries here.
      std::erase_if(ks, [&](std::int64_t k) { return k > n; });
      const auto ref_min = trace::minspans_oracle(shape.ts, ks);
      const auto ref_max = trace::maxspans_oracle(shape.ts, ks);
      for (GapEngine eng : {GapEngine::Auto, GapEngine::SharedIndex}) {
        SCOPED_TRACE(std::string(shape.name) + " |ks|=" + std::to_string(ks.size()) +
                     " engine=" + std::to_string(static_cast<int>(eng)));
        EXPECT_EQ(trace::minspans(shape.ts, ks, nullptr, eng), ref_min);
        EXPECT_EQ(trace::maxspans(shape.ts, ks, nullptr, eng), ref_max);
        for (unsigned threads : {1u, 2u, 7u, hw}) {
          common::ThreadPool pool(threads);
          EXPECT_EQ(trace::minspans(shape.ts, ks, pool, nullptr, eng), ref_min);
          EXPECT_EQ(trace::maxspans(shape.ts, ks, pool, nullptr, eng), ref_max);
        }
      }
    }
  }
}

// ---- degenerate inputs ------------------------------------------------------

TEST(RmqDifferential, EmptyTraceRejectedIdenticallyByEveryEngine) {
  // An all-quarantined ingest hands extraction an empty demand trace; the
  // contract (structured refusal, no UB) must not depend on the engine.
  const trace::DemandTrace empty;
  const std::vector<std::int64_t> ks{1};
  EXPECT_THROW(workload::extract_upper_oracle(empty, ks), wlc::Error);
  for (GapEngine eng : {GapEngine::Auto, GapEngine::SharedIndex}) {
    EXPECT_THROW(workload::extract_upper(empty, ks, nullptr, nullptr, nullptr, eng), wlc::Error);
    EXPECT_THROW(workload::extract_lower(empty, ks, nullptr, nullptr, nullptr, eng), wlc::Error);
  }
}

TEST(RmqDifferential, ClampedGridReportsTheSameStatsAsTheOracle) {
  const trace::DemandTrace d = bursty_trace(200, 3);
  const std::vector<std::int64_t> ks{1, 50, 400, 4000};  // two entries beyond n
  workload::ExtractStats fast_stats, oracle_stats;
  const auto fast =
      workload::extract_upper(d, ks, &fast_stats, nullptr, nullptr, GapEngine::SharedIndex);
  const auto ref = workload::extract_upper_oracle(d, ks, &oracle_stats);
  expect_curves_equal(fast, ref);
  EXPECT_EQ(fast_stats.clamped_ks, oracle_stats.clamped_ks);
  EXPECT_EQ(fast_stats.clamped_ks, 2);
}

// ---- the index itself, against naive loops ----------------------------------

template <typename T>
void check_index_against_naive(const std::vector<T>& v) {
  const common::SlidingExtrema<T> idx(v);
  const auto n = static_cast<std::int64_t>(v.size());
  for (std::int64_t s = 0; s < n; ++s) {
    T mx = v[static_cast<std::size_t>(s)] - v[0];
    T mn = mx;
    for (std::int64_t j = 1; j + s < n; ++j) {
      const T w = v[static_cast<std::size_t>(j + s)] - v[static_cast<std::size_t>(j)];
      mx = std::max(mx, w);
      mn = std::min(mn, w);
    }
    ASSERT_EQ(idx.max_gap(s), mx) << "shift " << s;
    ASSERT_EQ(idx.min_gap(s), mn) << "shift " << s;
  }
}

TEST(SlidingExtremaUnit, EveryShiftMatchesNaiveScansInt64) {
  std::mt19937_64 rng(99);
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 200u, 331u}) {
    std::vector<std::int64_t> v(n);
    std::int64_t acc = 0;
    for (auto& x : v) x = (acc += static_cast<std::int64_t>(rng() % 5000));
    SCOPED_TRACE("n=" + std::to_string(n));
    check_index_against_naive(v);
  }
}

TEST(SlidingExtremaUnit, EveryShiftMatchesNaiveScansDouble) {
  // Floating-point values exercise the rounding margin: the margin may cost
  // pruning, never exactness — results stay bit-identical to the scans.
  std::mt19937_64 rng(7);
  for (std::size_t n : {1u, 2u, 65u, 257u}) {
    std::vector<double> v(n);
    double acc = 1e6;  // large base magnifies detrending rounding error
    for (auto& x : v) x = (acc += static_cast<double>(rng() % 1000) * 1e-3);
    SCOPED_TRACE("n=" + std::to_string(n));
    check_index_against_naive(v);
  }
}

// ---- engine selection -------------------------------------------------------

TEST(GapEngineChoice, AutoResolvesBySizeAndByteBudget) {
  using common::choose_gap_engine;
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::Auto, 100, 0), GapEngine::Oracle);
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::Auto, 100000, 0), GapEngine::SharedIndex);
  // A cap that admits the value array but not the index's auxiliary bytes
  // resolves to the oracle, which needs nothing beyond the value array.
  const std::int64_t values = 100000;
  const std::int64_t value_bytes = values * static_cast<std::int64_t>(sizeof(Cycles));
  const std::int64_t aux = common::SlidingExtrema<Cycles>::index_bytes(values);
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::Auto, values, value_bytes + aux - 1),
            GapEngine::Oracle);
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::Auto, values, value_bytes + aux),
            GapEngine::SharedIndex);
  // Explicit requests are never second-guessed.
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::Oracle, values, 0), GapEngine::Oracle);
  EXPECT_EQ(choose_gap_engine<Cycles>(GapEngine::SharedIndex, values, value_bytes),
            GapEngine::SharedIndex);
}

TEST(GapEngineChoice, ByteBudgetedExtractionFallsBackToOracleIdentically) {
  const trace::DemandTrace d = bursty_trace(5000, 17);
  std::vector<std::int64_t> ks;
  for (std::int64_t k = 1; k <= 5000; k *= 3) ks.push_back(k);
  runtime::RunPolicy policy;
  // Enough for the prefix-sum buffer, too tight for buffer + index: Auto
  // must steer to the oracle and still match it bit for bit, with no
  // degradation recorded (nothing was shed).
  policy.on_budget = runtime::OnBudget::Degrade;
  const auto values = static_cast<std::int64_t>(d.size() + 1);
  policy.budget.max_resident_bytes = values * static_cast<std::int64_t>(sizeof(Cycles)) +
                                     common::SlidingExtrema<Cycles>::index_bytes(values) - 1;
  ASSERT_EQ(common::choose_gap_engine<Cycles>(GapEngine::Auto, values,
                                              policy.budget.max_resident_bytes),
            GapEngine::Oracle);
  runtime::DegradationReport deg;
  expect_curves_equal(workload::extract_upper(d, ks, nullptr, &policy, &deg),
                      workload::extract_upper_oracle(d, ks));
  expect_curves_equal(workload::extract_lower(d, ks, nullptr, &policy, &deg),
                      workload::extract_lower_oracle(d, ks));
  EXPECT_FALSE(deg.degraded());
}

// ---- cancellation mid-build -------------------------------------------------

TEST(RmqRuntime, CancelTripsInsideTheIndexBuild) {
  // The build polls its checkpoint every 0x1000 blocks; with > 0x1000·B
  // values the second poll lands mid-build. A checkpoint that throws there
  // must abort construction — no torn index is ever observable.
  const std::int64_t n = (0x1000 + 16) * common::SlidingExtrema<std::int64_t>::kBlockSize;
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::int64_t acc = 0;
  for (auto& x : v) x = (acc += 3);
  int polls = 0;
  const std::function<void()> checkpoint = [&] {
    if (++polls >= 2)
      throw CancelledError(CancelledError::Reason::Token, "cancelled mid-build");
  };
  EXPECT_THROW(common::SlidingExtrema<std::int64_t>(v, &checkpoint), CancelledError);
  EXPECT_EQ(polls, 2);
}

TEST(RmqRuntime, PreCancelledPolicyAbortsEveryEngineBeforeResults) {
  const trace::DemandTrace d = bursty_trace(5000, 23);
  const std::vector<std::int64_t> ks{1, 16, 256};
  runtime::CancelToken token = runtime::CancelToken::make();
  token.cancel();
  runtime::RunPolicy policy;
  policy.token = token;
  for (GapEngine eng : {GapEngine::Oracle, GapEngine::SharedIndex}) {
    SCOPED_TRACE("engine=" + std::to_string(static_cast<int>(eng)));
    EXPECT_THROW(workload::extract_upper(d, ks, nullptr, &policy, nullptr, eng), CancelledError);
    EXPECT_THROW(trace::minspans(timestamps_from(d), ks, &policy, eng), CancelledError);
  }
}

}  // namespace
}  // namespace wlc
