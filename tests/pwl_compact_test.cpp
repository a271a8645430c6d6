// Soundness property harness for bounded-error PWL compaction (CTest label
// `pwl`). Every property here is the *contract* of curve/compact.h, checked
// for the doubles actually stored, not the reals they approximate:
//
//   · Dominance: an Up-compacted curve evaluates >= the original at every
//     dense sample, a Down-compacted one <=. Checked at every sample AND at
//     every inter-sample midpoint (against the linear interpolant of the
//     dense samples — between adjacent grid points the compact curve is a
//     single linear piece, so midpoint dominance follows from endpoint
//     dominance up to evaluation rounding).
//   · Budget: |compact(i·dt) − v[i]| <= eps_abs + eps_rel·|v[i]| everywhere,
//     and the curve's recorded max_error() is an upper bound on the measured
//     deviation.
//   · Exactness at eps = 0: expand() is bit-identical to the input.
//   · Idempotence: re-compacting an expanded compact curve under the same
//     budget never increases the knot count.
//   · Monotonicity preservation: Up-compaction of a non-decreasing curve is
//     exactly non-decreasing; Down-compaction within a few ulps.
//
// The golden half re-runs the §3.2 sizing verdict through the PWL tier: at
// eps = 0 the compacted workload curve reproduces F^γ_min ≈ 364.4 MHz /
// F^w_min ≈ 744.3 MHz bit-for-bit; at eps > 0 the clock can only move *up*
// (an upper curve loosened upward demands more service, never less) and the
// paper's >50 % savings claim must survive a realistic budget.
//
// The fuzz matrix sweeps curve families (monotone random walks, plateaus,
// bursty steps, sawtooth, general walks) × error budgets (absolute,
// relative, mixed, zero) — the same diversity discipline as
// tests/property_test.cpp. The n = 10^6 sawtooth test pins the headline
// compression claim: >= 50× point reduction under a modest budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "curve/compact.h"
#include "curve/discrete_curve.h"
#include "mpeg/analyze.h"
#include "mpeg/clip.h"
#include "mpeg/trace_gen.h"
#include "rtc/sizing.h"
#include "trace/arrival_curve.h"
#include "workload/workload_curve.h"

namespace wlc::curve {
namespace {

// ---------------------------------------------------------------------------
// Curve families.
// ---------------------------------------------------------------------------

DiscreteCurve monotone_walk(std::size_t n, std::uint64_t seed, double dt = 1.0) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  for (std::size_t i = 1; i < n; ++i) v.push_back(v.back() + rng.uniform(0.0, 40.0));
  return DiscreteCurve(std::move(v), dt);
}

DiscreteCurve plateau_curve(std::size_t n, std::uint64_t seed, double dt = 1.0) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  double level = 0.0;
  while (v.size() < n) {
    level += rng.uniform(1.0, 500.0);
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t r = 0; r < run && v.size() < n; ++r) v.push_back(level);
  }
  return DiscreteCurve(std::move(v), dt);
}

DiscreteCurve bursty_steps(std::size_t n, std::uint64_t seed, double dt = 1.0) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  for (std::size_t i = 1; i < n; ++i) {
    const double inc = rng.bernoulli(0.05) ? rng.uniform(500.0, 5000.0)
                                           : rng.uniform(0.0, 10.0);
    v.push_back(v.back() + inc);
  }
  return DiscreteCurve(std::move(v), dt);
}

DiscreteCurve general_walk(std::size_t n, std::uint64_t seed, double dt = 1.0) {
  common::Rng rng(seed);
  std::vector<double> v{rng.uniform(0.0, 100.0)};
  for (std::size_t i = 1; i < n; ++i) v.push_back(v.back() + rng.uniform(-25.0, 30.0));
  return DiscreteCurve(std::move(v), dt);
}

DiscreteCurve sawtooth(std::size_t n, double ramp, double amp, std::size_t period,
                       double dt = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = ramp * static_cast<double>(i) +
           amp * static_cast<double>(i % period) / static_cast<double>(period);
  return DiscreteCurve(std::move(v), dt);
}

std::vector<DiscreteCurve> fuzz_family(std::uint64_t seed) {
  return {monotone_walk(137, seed), plateau_curve(211, seed ^ 0x11),
          bursty_steps(173, seed ^ 0x22), general_walk(149, seed ^ 0x33),
          sawtooth(200, 3.0, 40.0, 17), monotone_walk(64, seed ^ 0x44, 0.25)};
}

std::vector<CompactBudget> fuzz_budgets() {
  return {{0.0, 0.0}, {1e-6, 0.0}, {5.0, 0.0}, {0.0, 1e-3}, {25.0, 1e-2}};
}

// ---------------------------------------------------------------------------
// The soundness check itself — dominance + budget + max_error bookkeeping,
// at samples and midpoints.
// ---------------------------------------------------------------------------

void expect_sound(const DiscreteCurve& dense, const CompactCurve& c, CompactRounding mode) {
  ASSERT_EQ(c.dense_size(), dense.size());
  ASSERT_EQ(c.dt(), dense.dt());
  const auto& v = dense.values();
  double worst = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double y = c.eval_index(i);
    const double signed_err = mode == CompactRounding::Up ? y - v[i] : v[i] - y;
    ASSERT_GE(signed_err, 0.0) << "dominance violated at sample " << i;
    ASSERT_LE(signed_err, c.budget().at(v[i])) << "budget exceeded at sample " << i;
    worst = std::max(worst, std::abs(y - v[i]));
  }
  EXPECT_GE(c.max_error(), worst) << "recorded max_error under-reports the fit";

  // Midpoints: between grid points i and i+1 the compact curve is one linear
  // piece (knots are grid-aligned), so it must dominate the dense linear
  // interpolant there too — up to a few ulps of evaluation rounding.
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    const double x = (static_cast<double>(i) + 0.5) * dense.dt();
    const double interp = 0.5 * (v[i] + v[i + 1]);
    const double slack =
        8 * std::numeric_limits<double>::epsilon() * std::max(1.0, std::abs(interp));
    const double y = c.eval(x);
    if (mode == CompactRounding::Up) {
      ASSERT_GE(y, interp - slack) << "midpoint dominance violated between " << i << " and "
                                   << i + 1;
    } else {
      ASSERT_LE(y, interp + slack) << "midpoint dominance violated between " << i << " and "
                                   << i + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz matrix: families × budgets × both roundings.
// ---------------------------------------------------------------------------

class PwlCompactFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PwlCompactFuzz, UpperDominatesLowerIsDominatedWithinBudget) {
  for (const DiscreteCurve& dense : fuzz_family(GetParam())) {
    for (const CompactBudget& budget : fuzz_budgets()) {
      const CompactCurve up = CompactCurve::compact_upper(dense, budget);
      const CompactCurve lo = CompactCurve::compact_lower(dense, budget);
      expect_sound(dense, up, CompactRounding::Up);
      expect_sound(dense, lo, CompactRounding::Down);
      EXPECT_EQ(up.rounding(), CompactRounding::Up);
      EXPECT_EQ(lo.rounding(), CompactRounding::Down);
      // The two one-sided approximations bracket each other at every sample.
      for (std::size_t i = 0; i < dense.size(); ++i)
        ASSERT_GE(up.eval_index(i), lo.eval_index(i)) << i;
    }
  }
}

TEST_P(PwlCompactFuzz, ZeroBudgetExpandIsBitIdentical) {
  for (const DiscreteCurve& dense : fuzz_family(GetParam())) {
    for (CompactRounding mode : {CompactRounding::Up, CompactRounding::Down}) {
      const CompactCurve c = CompactCurve::compact(dense, CompactBudget{}, mode);
      EXPECT_EQ(c.max_error(), 0.0);
      const DiscreteCurve back = c.expand();
      ASSERT_EQ(back.size(), dense.size());
      ASSERT_EQ(0, std::memcmp(back.values().data(), dense.values().data(),
                               dense.size() * sizeof(double)))
          << "eps=0 expand() must reproduce the input bit-for-bit";
    }
  }
}

TEST_P(PwlCompactFuzz, RecompactionNeverIncreasesKnots) {
  for (const DiscreteCurve& dense : fuzz_family(GetParam())) {
    for (const CompactBudget& budget : fuzz_budgets()) {
      for (CompactRounding mode : {CompactRounding::Up, CompactRounding::Down}) {
        const CompactCurve c = CompactCurve::compact(dense, budget, mode);
        // Compacting the expansion of an already-PWL curve under the same
        // budget finds at worst the same segmentation again.
        const CompactCurve again = CompactCurve::compact(c.expand(), budget, mode);
        EXPECT_LE(again.size(), c.size());
        if (budget.zero()) {
          // Exact mode is fully idempotent: same knots, same expansion.
          EXPECT_TRUE(again == c);
        }
      }
    }
  }
}

TEST_P(PwlCompactFuzz, MonotonicityIsPreserved) {
  for (std::size_t fam = 0; fam < 3; ++fam) {  // the first three families are monotone
    const DiscreteCurve dense = fuzz_family(GetParam())[fam];
    for (const CompactBudget& budget : fuzz_budgets()) {
      const CompactCurve up = CompactCurve::compact_upper(dense, budget);
      // Exact for Up-compaction of a non-decreasing non-negative curve.
      double prev = up.eval_index(0);
      for (std::size_t i = 1; i < dense.size(); ++i) {
        const double y = up.eval_index(i);
        ASSERT_GE(y, prev) << "Up compaction lost monotonicity at " << i;
        prev = y;
      }
      // Down-compaction: within a few ulps (the repair jump direction is
      // downward there).
      const CompactCurve lo = CompactCurve::compact_lower(dense, budget);
      prev = lo.eval_index(0);
      for (std::size_t i = 1; i < dense.size(); ++i) {
        const double y = lo.eval_index(i);
        const double slack =
            8 * std::numeric_limits<double>::epsilon() * std::max(1.0, std::abs(prev));
        ASSERT_GE(y, prev - slack) << "Down compaction lost monotonicity at " << i;
        prev = y;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PwlCompactFuzz,
                         ::testing::Values(0x2001, 0x2002, 0x2003, 0x2004, 0x2005));

// ---------------------------------------------------------------------------
// Shape preservation & structural behaviour.
// ---------------------------------------------------------------------------

TEST(PwlCompact, ConstantAndAffineCollapseToOneSegment) {
  const DiscreteCurve flat(std::vector<double>(500, 7.25), 1.0);
  const CompactCurve cflat = CompactCurve::compact_upper(flat, CompactBudget{});
  EXPECT_LE(cflat.size(), 2u);
  for (const CompactCurve::Knot& k : cflat.knots()) EXPECT_EQ(k.slope, 0.0);

  std::vector<double> ramp(600);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = 2.5 * static_cast<double>(i);
  const CompactCurve caff =
      CompactCurve::compact_upper(DiscreteCurve(std::move(ramp), 1.0), CompactBudget{});
  EXPECT_LE(caff.size(), 2u);
  EXPECT_EQ(caff.knots().front().slope, 2.5);
  for (const CompactCurve::Knot& k : caff.knots())
    EXPECT_EQ(k.slope, caff.knots().front().slope);
  EXPECT_GE(caff.reduction(), 100.0);
}

TEST(PwlCompact, ConvexInputStaysConvexAtZeroBudget) {
  // Exactly representable convex samples: v[i] = i·(i−1)/2 (integer sums).
  std::vector<double> v(160);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 0.5 * static_cast<double>(i) * static_cast<double>(i - (i > 0));
  const DiscreteCurve dense(std::move(v), 1.0);
  ASSERT_EQ(dense.shape(), DiscreteCurve::Shape::Convex);
  const CompactCurve c = CompactCurve::compact_upper(dense, CompactBudget{});
  const DiscreteCurve back = c.expand();
  ASSERT_EQ(back.size(), dense.size());
  EXPECT_EQ(std::memcmp(back.values().data(), dense.values().data(),
                        dense.size() * sizeof(double)),
            0);
  EXPECT_EQ(back.shape(), DiscreteCurve::Shape::Convex);
}

TEST(PwlCompact, EvalIsExactAtKnotsAndClampsOutside) {
  const DiscreteCurve dense = monotone_walk(300, 0xeee);
  const CompactCurve c = CompactCurve::compact_upper(dense, CompactBudget{10.0, 1e-3});
  for (const CompactCurve::Knot& k : c.knots()) {
    EXPECT_EQ(c.eval(static_cast<double>(k.i) * c.dt()), k.y)
        << "knot evaluation must return the stored y bit-exactly";
  }
  EXPECT_EQ(c.eval(-3.0), c.eval(0.0));
  EXPECT_EQ(c.eval(c.horizon() + 42.0), c.eval(c.horizon()));
}

TEST(PwlCompact, FromKnotsRoundTripsAndValidatesStrictly) {
  const DiscreteCurve dense = bursty_steps(220, 0x5151);
  const CompactBudget budget{3.0, 1e-4};
  const CompactCurve c = CompactCurve::compact_lower(dense, budget);
  const CompactCurve back = CompactCurve::from_knots(
      c.knots(), c.dt(), c.dense_size(), c.rounding(), c.budget(), c.max_error());
  EXPECT_TRUE(back == c);
  EXPECT_EQ(back.max_error(), c.max_error());

  using Knot = CompactCurve::Knot;
  // First knot must sit at index 0.
  EXPECT_THROW(CompactCurve::from_knots({Knot{1, 0.0, 0.0}}, 1.0, 4, CompactRounding::Up,
                                        CompactBudget{}, 0.0),
               DomainError);
  // Indices strictly increasing.
  EXPECT_THROW(CompactCurve::from_knots({Knot{0, 0.0, 0.0}, Knot{0, 1.0, 0.0}}, 1.0, 4,
                                        CompactRounding::Up, CompactBudget{}, 0.0),
               DomainError);
  // Indices inside the dense grid.
  EXPECT_THROW(CompactCurve::from_knots({Knot{0, 0.0, 0.0}, Knot{9, 1.0, 0.0}}, 1.0, 4,
                                        CompactRounding::Up, CompactBudget{}, 0.0),
               DomainError);
  // Finite values only.
  EXPECT_THROW(CompactCurve::from_knots(
                   {Knot{0, std::numeric_limits<double>::quiet_NaN(), 0.0}}, 1.0, 4,
                   CompactRounding::Up, CompactBudget{}, 0.0),
               DomainError);
  // dt must be positive.
  EXPECT_THROW(CompactCurve::from_knots({Knot{0, 0.0, 0.0}}, 0.0, 4, CompactRounding::Up,
                                        CompactBudget{}, 0.0),
               DomainError);
}

TEST(PwlCompact, BudgetValidation) {
  const DiscreteCurve dense = monotone_walk(32, 1);
  EXPECT_THROW(CompactCurve::compact_upper(dense, CompactBudget{-1.0, 0.0}), DomainError);
  EXPECT_THROW(CompactCurve::compact_upper(dense, CompactBudget{0.0, -1e-9}), DomainError);
  EXPECT_THROW(CompactCurve::compact_upper(
                   dense, CompactBudget{std::numeric_limits<double>::infinity(), 0.0}),
               DomainError);
}

TEST(PwlCompact, SingleSampleCurve) {
  const DiscreteCurve one(std::vector<double>{13.0}, 0.5);
  const CompactCurve c = CompactCurve::compact_upper(one, CompactBudget{5.0, 0.0});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.eval_index(0), 13.0);
  EXPECT_EQ(c.expand().values(), one.values());
}

// ---------------------------------------------------------------------------
// The headline compression claim: a dense n = 10^6 sawtooth compacts >= 50×
// under a budget a couple of tooth amplitudes wide, and stays sound.
// ---------------------------------------------------------------------------

TEST(PwlCompact, MillionPointSawtoothCompactsFiftyfold) {
  const std::size_t n = 1'000'000;
  const double ramp = 0.875, amp = 48.0;
  const DiscreteCurve dense = sawtooth(n, ramp, amp, 128);
  const CompactBudget budget{2.0 * amp, 0.0};

  const CompactCurve up = CompactCurve::compact_upper(dense, budget);
  const CompactCurve lo = CompactCurve::compact_lower(dense, budget);
  EXPECT_GE(up.reduction(), 50.0) << up.size() << " knots for " << n << " samples";
  EXPECT_GE(lo.reduction(), 50.0) << lo.size() << " knots for " << n << " samples";

  // Full O(n) soundness sweep — dominance and budget at every sample.
  const auto& v = dense.values();
  for (std::size_t i = 0; i < n; ++i) {
    const double yu = up.eval_index(i), yl = lo.eval_index(i);
    ASSERT_GE(yu, v[i]) << i;
    ASSERT_LE(yu - v[i], budget.at(v[i])) << i;
    ASSERT_LE(yl, v[i]) << i;
    ASSERT_GE(yl, v[i] - budget.at(v[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// Golden §3.2: the sizing verdict through the PWL tier.
// ---------------------------------------------------------------------------

struct CombinedCurves {
  workload::WorkloadCurve gamma_u;
  trace::EmpiricalArrivalCurve arrivals;
};

/// Same combined 14-clip extraction as tests/golden_paper_test.cpp, cached
/// once per process — the extraction dominates these tests' runtime.
const CombinedCurves& combined_clips() {
  static const CombinedCurves* combined = [] {
    mpeg::TraceConfig cfg;
    cfg.frames = 48;
    cfg.pe1_frequency = 150e6;
    mpeg::AnalyzeOptions opt;  // dense_limit 512 / growth 1.01, the paper grid
    opt.min_max_k = 24 * cfg.stream.mb_per_frame();
    common::ThreadPool pool;
    const auto clips = mpeg::analyze_clips(cfg, mpeg::clip_library(), opt, pool);
    auto gu = clips.front().gamma_u;
    auto arr = clips.front().alpha_u;
    for (std::size_t i = 1; i < clips.size(); ++i) {
      gu = workload::WorkloadCurve::combine(gu, clips[i].gamma_u);
      arr = trace::EmpiricalArrivalCurve::combine(arr, clips[i].alpha_u);
    }
    return new CombinedCurves{std::move(gu), std::move(arr)};
  }();
  return *combined;
}

/// γᵘ through the PWL tier: compact the breakpoint values (the serve tier's
/// grid — one sample per breakpoint, dt = 1, cycles exact in double), then
/// rebuild a WorkloadCurve whose breakpoints carry the compacted values
/// rounded up to integral cycles. The origin stays pinned at (0, 0) —
/// γᵘ(0) = 0 exactly, so that is still an upper bound.
workload::WorkloadCurve tiered_gamma(const workload::WorkloadCurve& gu,
                                     const CompactBudget& budget) {
  const auto& pts = gu.points();
  std::vector<double> v;
  v.reserve(pts.size());
  for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
  const CompactCurve c = CompactCurve::compact_upper(DiscreteCurve(std::move(v), 1.0), budget);

  std::vector<workload::WorkloadCurve::Point> out;
  out.reserve(pts.size());
  out.push_back({0, 0});
  Cycles prev = 0;
  for (std::size_t j = 1; j < pts.size(); ++j) {
    const auto cycles =
        std::max(prev, static_cast<Cycles>(std::ceil(c.eval_index(j))));
    out.push_back({pts[j].first, cycles});
    prev = cycles;
  }
  return workload::WorkloadCurve(workload::Bound::Upper, std::move(out));
}

TEST(PwlGoldenPaper, ExactTierReproducesTheSizingVerdictBitForBit) {
  const CombinedCurves& c = combined_clips();
  const EventCount buffer = 1620;  // one 45×36-macroblock frame, as in §3.2

  const Hertz f_gamma = rtc::min_frequency_workload(c.arrivals, c.gamma_u, buffer);
  const Hertz f_wcet = rtc::min_frequency_wcet(c.arrivals, c.gamma_u.wcet(), buffer);
  const workload::WorkloadCurve tiered = tiered_gamma(c.gamma_u, CompactBudget{});
  const Hertz f_tiered = rtc::min_frequency_workload(c.arrivals, tiered, buffer);
  const Hertz f_wcet_tiered = rtc::min_frequency_wcet(c.arrivals, tiered.wcet(), buffer);

  // eps = 0 is an exact re-encoding: same breakpoints, same verdicts.
  EXPECT_EQ(tiered.points(), c.gamma_u.points());
  EXPECT_EQ(f_tiered, f_gamma);
  EXPECT_EQ(f_wcet_tiered, f_wcet);
  // And both still pin the captured §3.2 numbers.
  EXPECT_NEAR(f_tiered / 1e6, 364.4, 0.1);
  EXPECT_NEAR(f_wcet_tiered / 1e6, 744.3, 0.1);
  EXPECT_NEAR(f_tiered / f_wcet_tiered, 0.4896, 0.002);
}

TEST(PwlGoldenPaper, LossyTierOnlyLoosensTheVerdictConservatively) {
  const CombinedCurves& c = combined_clips();
  const EventCount buffer = 1620;
  const Hertz f_gamma = rtc::min_frequency_workload(c.arrivals, c.gamma_u, buffer);

  for (const CompactBudget budget : {CompactBudget{0.0, 1e-4}, CompactBudget{0.0, 1e-3}}) {
    const workload::WorkloadCurve tiered = tiered_gamma(c.gamma_u, budget);
    // An upper curve loosened upward: every breakpoint dominates the
    // original, so the required clock can only rise.
    for (std::size_t j = 0; j < tiered.points().size(); ++j) {
      ASSERT_EQ(tiered.points()[j].first, c.gamma_u.points()[j].first);
      ASSERT_GE(tiered.points()[j].second, c.gamma_u.points()[j].second);
    }
    const Hertz f_tiered = rtc::min_frequency_workload(c.arrivals, tiered, buffer);
    EXPECT_GE(f_tiered, f_gamma) << "lossy tier relaxed the clock requirement";
    // A permille-scale budget moves the verdict by at most its own order:
    // the savings claim survives.
    EXPECT_NEAR(f_tiered / 1e6, 364.4, 1.5);
    const Hertz f_wcet = rtc::min_frequency_wcet(c.arrivals, tiered.wcet(), buffer);
    EXPECT_LT(f_tiered / f_wcet, 0.55);
  }
}

}  // namespace
}  // namespace wlc::curve
