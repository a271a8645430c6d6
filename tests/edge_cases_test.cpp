// Edge cases and secondary paths not covered by the per-module suites:
// contract violations, degenerate inputs, and cross-representation corners.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.h"
#include "common/rmq.h"
#include "curve/discrete_curve.h"
#include "curve/pwl_curve.h"
#include "mpeg/model.h"
#include "rtc/mpa.h"
#include "sched/edf.h"
#include "sched/response_time.h"
#include "sched/rms.h"
#include "sched/simulator.h"
#include "trace/arrival_curve.h"
#include "trace/arrival_extract.h"
#include "trace/traces.h"
#include "workload/extract.h"
#include "workload/workload_curve.h"

namespace wlc {
namespace {

TEST(PwlCurveEdge, DriftedBreakpointQueriesResolveToTheJump) {
  // Regression for the seam-snapping fix: evaluating a periodic staircase at
  // its own generated (ulp-drifted) breakpoints must give the post-jump
  // value, and eval_left the pre-jump one.
  const auto st = curve::PwlCurve::staircase(1.0, 1.0, 0.2, 0.2);
  const auto bps = st.breakpoints(50.0);
  for (std::size_t i = 1; i < bps.size(); ++i) {
    ASSERT_NEAR(st.eval(bps[i]), 1.0 + static_cast<double>(i), 1e-9) << i;
    ASSERT_NEAR(st.eval_left(bps[i]), static_cast<double>(i), 1e-9) << i;
  }
}

TEST(PwlCurveEdge, InverseOnPeriodicCurves) {
  const auto st = curve::PwlCurve::staircase(0.0, 2.0, 5.0, 5.0);  // 2·⌊x/5⌋
  const auto x = st.inverse_lower(7.0);  // first x with value >= 7 is 20 (value 8)
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 20.0, 1e-6);
  const auto y = st.inverse_upper(7.9);  // sup{x : f(x) <= 7.9} = 20 (jump to 8)
  ASSERT_TRUE(y.has_value());
  EXPECT_NEAR(*y, 20.0, 1e-6);
}

TEST(PwlCurveEdge, ToStringAndScaleValidation) {
  const auto c = curve::PwlCurve::token_bucket(2.0, 1.0);
  EXPECT_NE(c.to_string().find("PwlCurve"), std::string::npos);
  EXPECT_THROW(c.scale_y(-1.0), std::invalid_argument);
  const auto z = c.scale_y(0.0);
  EXPECT_DOUBLE_EQ(z.eval(10.0), 0.0);
}

TEST(DiscreteCurveEdge, SampleAndLinearEvalBoundaries) {
  const auto c = curve::DiscreteCurve::sample(curve::PwlCurve::affine(1.0, 2.0), 0.5, 4);
  EXPECT_DOUBLE_EQ(c.eval_linear(c.horizon()), c[3]);
  EXPECT_THROW(c.eval_linear(-0.1), std::invalid_argument);
  EXPECT_THROW(curve::DiscreteCurve({}, 1.0), std::invalid_argument);
  EXPECT_THROW(curve::DiscreteCurve({1.0}, 0.0), std::invalid_argument);
}

TEST(WorkloadCurveEdge, ContractViolations) {
  const auto g = workload::WorkloadCurve::from_constant_demand(workload::Bound::Upper, 5);
  EXPECT_THROW(g.value(-1), std::invalid_argument);
  EXPECT_THROW(g.inverse(-1), std::invalid_argument);
  // γᵘ ≡ 0 admits unboundedly many events per budget: inverse must refuse.
  const workload::WorkloadCurve zero(workload::Bound::Upper, {{0, 0}, {1, 0}});
  EXPECT_THROW(zero.inverse(10), std::invalid_argument);
}

TEST(ArrivalCurveEdge, CombineRejectsMixedBounds) {
  using B = trace::EmpiricalArrivalCurve::Bound;
  const trace::EmpiricalArrivalCurve u(B::Upper, {{0.0, 1}});
  const trace::EmpiricalArrivalCurve l(B::Lower, {{0.0, 0}});
  EXPECT_THROW(trace::EmpiricalArrivalCurve::combine(u, l), std::invalid_argument);
  EXPECT_THROW(u.eval(-1.0), std::invalid_argument);
}

TEST(SchedEdge, SingleTaskLoadIsUtilization) {
  const sched::TaskSet ts{{"solo", 2.0, 2.0, 30, std::nullopt}};
  const auto r = sched::lehoczky_test(ts, 30.0, sched::DemandModel::WcetOnly);
  EXPECT_DOUBLE_EQ(r.overall, 0.5);  // 30 cycles / (30 Hz · 2 s)
  EXPECT_THROW(
      sched::min_schedulable_frequency(ts, sched::DemandModel::WcetOnly, 10.0, 10.0),
      std::invalid_argument);
}

TEST(SchedEdge, ResponseTimeDivergesOnOverload) {
  const sched::TaskSet ts{{"a", 1.0, 1.0, 60, std::nullopt}, {"b", 2.0, 2.0, 90, std::nullopt}};
  // U = 60 + 45 = 105 cycles/s at f = 100: saturated.
  EXPECT_FALSE(sched::response_times_wcet(ts, 100.0, 50).has_value());
}

TEST(SchedEdge, EdfRejectsArbitraryDeadlines) {
  const sched::PeriodicTask t{"late", 1.0, 2.0, 10, std::nullopt};  // D > T
  EXPECT_THROW(sched::demand_bound(t, 5.0, sched::DemandModel::WcetOnly),
               std::invalid_argument);
}

TEST(SchedEdge, EdfMatchesFixedPriorityForOneTask) {
  const std::vector<sched::SimTask> one{
      {"solo", 1.0, 1.0, std::make_shared<sched::CyclicDemand>(std::vector<Cycles>{40, 80})}};
  const auto fp = sched::simulate_fixed_priority(one, 100.0, 50.0);
  const auto edf = sched::simulate_edf(one, 100.0, 50.0);
  EXPECT_EQ(fp.tasks[0].jobs_completed, edf.tasks[0].jobs_completed);
  EXPECT_DOUBLE_EQ(fp.tasks[0].response_time.max(), edf.tasks[0].response_time.max());
  EXPECT_DOUBLE_EQ(fp.busy_time, edf.busy_time);
}

TEST(MpaEdge, EmpiricalStreamInput) {
  using B = trace::EmpiricalArrivalCurve::Bound;
  rtc::SystemModel m;
  m.add_resource("pe", 500.0);
  m.add_stream("in", trace::EmpiricalArrivalCurve(B::Upper, {{0.0, 2}, {1.0, 4}, {2.0, 6}}),
               trace::EmpiricalArrivalCurve(B::Lower, {{0.0, 0}, {1.5, 1}, {3.0, 2}}));
  m.add_task("t", "in", "pe", workload::WorkloadCurve::from_constant_demand(workload::Bound::Upper, 50),
             workload::WorkloadCurve::from_constant_demand(workload::Bound::Lower, 20));
  const auto r = m.analyze(0.1, 6.0);
  EXPECT_TRUE(std::isfinite(r.task("t").delay));
  EXPECT_GE(r.task("t").backlog_events, 1);  // the instantaneous burst of 2
}

TEST(MpegEdge, GopWithM2AndDeterministicScenes) {
  mpeg::StreamParams p;
  p.gop_n = 8;
  p.gop_m = 2;
  const auto order = mpeg::gop_coded_order(p);
  ASSERT_EQ(order.size(), 8u);
  int b_count = 0;
  for (auto t : order) b_count += t == mpeg::FrameType::B;
  EXPECT_EQ(b_count, 4);
  // Scene redraws are part of the seeded stream: same profile, same frames.
  p = mpeg::StreamParams{};
  p.width = 160;
  p.height = 96;
  mpeg::StreamModel m1(p, mpeg::clip_library()[7]);
  mpeg::StreamModel m2(p, mpeg::clip_library()[7]);
  const auto f1 = m1.generate(15);
  const auto f2 = m2.generate(15);
  for (std::size_t f = 0; f < f1.size(); ++f) {
    ASSERT_EQ(f1[f].scene_cut, f2[f].scene_cut) << f;
    ASSERT_EQ(f1[f].mbs[10].bits, f2[f].mbs[10].bits) << f;
  }
}

TEST(ExtractionEdge, EmptyTraceRefusedByOracleAndFastPathsAlike) {
  // An empty demand trace (e.g. every row quarantined upstream) must get
  // the same structured refusal from the per-k oracle and from the shared
  // sliding-window index — degenerate inputs are not allowed to pick a
  // different contract per engine.
  const trace::DemandTrace empty;
  const std::vector<std::int64_t> ks{1};
  EXPECT_THROW(workload::extract_upper_oracle(empty, ks), wlc::Error);
  EXPECT_THROW(workload::extract_lower_oracle(empty, ks), wlc::Error);
  const auto index = common::GapEngine::SharedIndex;
  EXPECT_THROW(workload::extract_upper(empty, ks, nullptr, nullptr, nullptr, index), wlc::Error);
  EXPECT_THROW(workload::extract_lower(empty, ks, nullptr, nullptr, nullptr, index), wlc::Error);
  const trace::TimestampTrace no_ts;
  EXPECT_THROW(trace::minspans_oracle(no_ts, ks), wlc::Error);
  EXPECT_THROW(trace::minspans(no_ts, ks, nullptr, index), wlc::Error);
}

TEST(ExtractionEdge, DuplicateTimestampsYieldZeroSpansOnBothPaths) {
  // Batch arrivals: several events sharing one timestamp are legal, and the
  // tightest k-event span is exactly 0.0 for every k inside a batch. The
  // fast engines must reproduce the oracle bit for bit here — zero-width
  // gaps are where a sloppy bound or a reordered float reduction would show.
  trace::TimestampTrace ts;
  for (int batch = 0; batch < 40; ++batch)
    for (int i = 0; i < 5; ++i) ts.push_back(static_cast<double>(batch) * 1e-3);
  std::vector<std::int64_t> ks;
  for (std::int64_t k = 1; k <= static_cast<std::int64_t>(ts.size()); k += 7) ks.push_back(k);
  const auto ref_min = trace::minspans_oracle(ts, ks);
  const auto ref_max = trace::maxspans_oracle(ts, ks);
  EXPECT_EQ(ref_min[0], 0.0);  // five events share every timestamp
  EXPECT_EQ(trace::minspans(ts, ks, nullptr, common::GapEngine::SharedIndex), ref_min);
  EXPECT_EQ(trace::maxspans(ts, ks, nullptr, common::GapEngine::SharedIndex), ref_max);
  // Same through the arrival-curve layer: the curves carry the spans.
  const auto up_ref = trace::extract_upper_arrival(ts, ks, nullptr, common::GapEngine::Oracle);
  const auto up_fast =
      trace::extract_upper_arrival(ts, ks, nullptr, common::GapEngine::SharedIndex);
  EXPECT_EQ(up_ref.points(), up_fast.points());
}

TEST(MpegEdge, InvalidStreamParamsThrow) {
  mpeg::StreamParams p;
  p.width = 100;  // not macroblock-aligned
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = mpeg::StreamParams{};
  p.gop_m = 13;  // larger than gop_n
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = mpeg::StreamParams{};
  p.vbv_bits = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace wlc
