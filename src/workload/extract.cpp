#include "workload/extract.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/assert.h"
#include "common/error.h"
#include "obs/obs.h"

namespace wlc::workload {

namespace {

std::vector<Cycles> prefix_sums(const trace::DemandTrace& d, std::size_t n) {
  std::vector<Cycles> p(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    WLC_REQUIRE(d[i] >= 0, "execution demands must be non-negative");
    if (__builtin_add_overflow(p[i], d[i], &p[i + 1]))
      throw OverflowError("cumulative trace demand exceeds the Cycles range",
                          "prefix sum at event " + std::to_string(i), __FILE__, __LINE__);
  }
  return p;
}

/// Applies the resident-byte budget to the trace length: the prefix-sum
/// buffer is the resident working set of one extraction ((n+1) Cycles
/// values; the breakpoint buffer is bounded by the grid budget). Under
/// Degrade the analyzed window shrinks to the longest prefix that fits —
/// the curves then certify that prefix only, which the report states.
/// (The shared index's auxiliary memory is NOT part of this contract: when
/// it would not also fit, Auto falls back to the oracle scans instead of
/// shedding more events — identical output, see common::choose_gap_engine.)
EventCount apply_byte_budget(EventCount n, const runtime::RunPolicy* policy,
                             runtime::DegradationReport* degradation) {
  if (!policy) return n;
  const std::int64_t need = (static_cast<std::int64_t>(n) + 1) *
                            static_cast<std::int64_t>(sizeof(Cycles));
  if (policy->bytes_within_budget(need)) return n;
  const EventCount fit =
      policy->budget.max_resident_bytes / static_cast<std::int64_t>(sizeof(Cycles)) - 1;
  if (policy->on_budget == runtime::OnBudget::Fail || fit < 1)
    throw BudgetExceededError("resident_bytes",
                              "extraction needs " + std::to_string(need) +
                                  " resident bytes for " + std::to_string(n) +
                                  " events but the budget allows " +
                                  std::to_string(policy->budget.max_resident_bytes),
                              std::to_string(need), __FILE__, __LINE__);
  WLC_COUNTER_ADD("runtime.degradations", 1);
  WLC_COUNTER_ADD("runtime.shed_events", n - fit);
  if (degradation) {
    degradation->events_requested += n;
    degradation->events_analyzed += fit;
    degradation->note("byte budget truncated the analyzed window from " + std::to_string(n) +
                      " to " + std::to_string(fit) +
                      " events (bounds certify the analyzed prefix only)");
  }
  return fit;
}

struct NormalizedGrid {
  std::vector<EventCount> ks;
  std::int64_t clamped = 0;  ///< requested entries with k > n (before dedup)
};

NormalizedGrid normalized_grid(std::span<const std::int64_t> ks, EventCount n) {
  NormalizedGrid g;
  g.ks.reserve(ks.size() + 1);
  for (std::int64_t k : ks) {
    WLC_REQUIRE(k >= 1, "window sizes must be >= 1");
    if (k > n) ++g.clamped;
    g.ks.push_back(std::min<EventCount>(k, n));
  }
  g.ks.push_back(n);
  std::sort(g.ks.begin(), g.ks.end());
  g.ks.erase(std::unique(g.ks.begin(), g.ks.end()), g.ks.end());
  return g;
}

/// One grid entry's sliding-window extremum — the retained oracle kernel.
/// The scan order (j ascending) is the unit of determinism: serial and
/// parallel oracle paths both run this exact loop per k, and the fast
/// engines reduce the same candidate set, so results cannot differ.
Cycles scan_window(const std::vector<Cycles>& p, EventCount n, EventCount k, Bound bound) {
  Cycles best = bound == Bound::Upper ? std::numeric_limits<Cycles>::min()
                                      : std::numeric_limits<Cycles>::max();
  for (EventCount j = 0; j + k <= n; ++j) {
    const Cycles w = p[static_cast<std::size_t>(j + k)] - p[static_cast<std::size_t>(j)];
    best = bound == Bound::Upper ? std::max(best, w) : std::min(best, w);
  }
  return best;
}

WorkloadCurve extract(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                      Bound bound, common::ThreadPool* pool, ExtractStats* stats,
                      const runtime::RunPolicy* policy,
                      runtime::DegradationReport* degradation, common::GapEngine engine) {
  WLC_TRACE_SPAN(bound == Bound::Upper ? "extract.upper" : "extract.lower");
  if (policy) policy->checkpoint("workload extraction");
  WLC_REQUIRE(!demands.empty(), "demand trace must be non-empty");
  const EventCount n =
      apply_byte_budget(static_cast<EventCount>(demands.size()), policy, degradation);
  const std::vector<Cycles> p = prefix_sums(demands, static_cast<std::size_t>(n));
  NormalizedGrid grid = normalized_grid(ks, n);
  grid.ks = runtime::apply_grid_budget(std::move(grid.ks), policy, degradation,
                                       "workload extraction");
  WLC_COUNTER_ADD("extract.grid_entries", static_cast<std::int64_t>(grid.ks.size()));
  WLC_COUNTER_ADD("extract.clamped_ks", grid.clamped);
  if (stats) stats->clamped_ks = grid.clamped;
  std::vector<WorkloadCurve::Point> pts(grid.ks.size() + 1);
  pts[0] = {0, 0};
  // Both engines poll with the oracle's cadence (before every grid entry;
  // the index build adds polls every few thousand values), so a cancelled
  // run aborts within one bounded chunk regardless of threading or engine.
  const auto check = [&] {
    if (policy) policy->checkpoint("workload extraction");
  };
  const std::function<void()> checkpoint = check;
  const auto run_entries = [&](auto&& eval_entry) {
    if (pool) {
      common::parallel_for(*pool, grid.ks.size(), eval_entry, check);
    } else {
      for (std::size_t gi = 0; gi < grid.ks.size(); ++gi) {
        check();
        eval_entry(gi);
      }
    }
  };
  switch (common::choose_gap_engine<Cycles>(
      engine, n + 1, policy ? policy->budget.max_resident_bytes : 0)) {
    case common::GapEngine::SharedIndex: {
      WLC_COUNTER_ADD("extract.engine.shared_index", 1);
      const common::SlidingExtrema<Cycles> index(p, &checkpoint);
      std::vector<std::int64_t> scanned(grid.ks.size(), 0);
      run_entries([&](std::size_t gi) {
        const EventCount k = grid.ks[gi];
        pts[gi + 1] = {k, bound == Bound::Upper ? index.max_gap(k, &scanned[gi])
                                                : index.min_gap(k, &scanned[gi])};
      });
      WLC_COUNTER_ADD("extract.windows_scanned",
                      std::accumulate(scanned.begin(), scanned.end(), std::int64_t{0}));
      break;
    }
    default: {
      WLC_COUNTER_ADD("extract.engine.oracle", 1);
      run_entries([&](std::size_t gi) {
        const EventCount k = grid.ks[gi];
        WLC_COUNTER_ADD("extract.windows_scanned", n - k + 1);
        pts[gi + 1] = {k, scan_window(p, n, k, bound)};
      });
      break;
    }
  }
  return WorkloadCurve(bound, std::move(pts));
}

}  // namespace

WorkloadCurve extract_upper(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            ExtractStats* stats, const runtime::RunPolicy* policy,
                            runtime::DegradationReport* degradation, common::GapEngine engine) {
  return extract(demands, ks, Bound::Upper, nullptr, stats, policy, degradation, engine);
}

WorkloadCurve extract_lower(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            ExtractStats* stats, const runtime::RunPolicy* policy,
                            runtime::DegradationReport* degradation, common::GapEngine engine) {
  return extract(demands, ks, Bound::Lower, nullptr, stats, policy, degradation, engine);
}

WorkloadCurve extract_upper(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            common::ThreadPool& pool, ExtractStats* stats,
                            const runtime::RunPolicy* policy,
                            runtime::DegradationReport* degradation, common::GapEngine engine) {
  return extract(demands, ks, Bound::Upper, &pool, stats, policy, degradation, engine);
}

WorkloadCurve extract_lower(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            common::ThreadPool& pool, ExtractStats* stats,
                            const runtime::RunPolicy* policy,
                            runtime::DegradationReport* degradation, common::GapEngine engine) {
  return extract(demands, ks, Bound::Lower, &pool, stats, policy, degradation, engine);
}

WorkloadCurve extract_upper_oracle(const trace::DemandTrace& demands,
                                   std::span<const std::int64_t> ks, ExtractStats* stats,
                                   const runtime::RunPolicy* policy,
                                   runtime::DegradationReport* degradation) {
  return extract(demands, ks, Bound::Upper, nullptr, stats, policy, degradation,
                 common::GapEngine::Oracle);
}

WorkloadCurve extract_lower_oracle(const trace::DemandTrace& demands,
                                   std::span<const std::int64_t> ks, ExtractStats* stats,
                                   const runtime::RunPolicy* policy,
                                   runtime::DegradationReport* degradation) {
  return extract(demands, ks, Bound::Lower, nullptr, stats, policy, degradation,
                 common::GapEngine::Oracle);
}

namespace {
std::vector<std::int64_t> every_k(EventCount k_max) {
  std::vector<std::int64_t> ks(static_cast<std::size_t>(k_max));
  std::iota(ks.begin(), ks.end(), 1);
  return ks;
}
}  // namespace

WorkloadCurve extract_upper_dense(const trace::DemandTrace& demands, EventCount k_max) {
  WLC_REQUIRE(k_max >= 1, "need k_max >= 1");
  return extract_upper(demands, every_k(std::min<EventCount>(k_max, static_cast<EventCount>(demands.size()))));
}

WorkloadCurve extract_lower_dense(const trace::DemandTrace& demands, EventCount k_max) {
  WLC_REQUIRE(k_max >= 1, "need k_max >= 1");
  return extract_lower(demands, every_k(std::min<EventCount>(k_max, static_cast<EventCount>(demands.size()))));
}

std::vector<CurveBundle> extract_batch(const std::vector<trace::DemandTrace>& traces,
                                       std::span<const std::int64_t> ks,
                                       common::ThreadPool& pool,
                                       const runtime::RunPolicy* policy,
                                       runtime::DegradationReport* degradation,
                                       common::GapEngine engine) {
  WLC_TRACE_SPAN("extract.batch");
  WLC_COUNTER_ADD("extract.batch_traces", static_cast<std::int64_t>(traces.size()));
  // The grid budget is applied once to the shared grid (recorded once);
  // the per-trace policy keeps the token/deadline/byte budget but drops the
  // already-satisfied grid axis so per-trace normalization cannot re-shed.
  std::vector<std::int64_t> shared_ks(ks.begin(), ks.end());
  runtime::RunPolicy per_trace;
  const runtime::RunPolicy* pp = nullptr;
  if (policy) {
    shared_ks =
        runtime::apply_grid_budget(std::move(shared_ks), policy, degradation, "batched");
    per_trace = *policy;
    per_trace.budget.max_grid_points = 0;
    pp = &per_trace;
  }
  // Per-trace degradation lands in an indexed slot and is folded after the
  // join, so the combined report is deterministic in trace order no matter
  // how the pool schedules the tasks.
  std::vector<runtime::DegradationReport> local(traces.size());
  const auto check = [&] {
    if (pp) pp->checkpoint("batched extraction");
  };
  // Outer parallelism only: each task runs the serial per-trace extraction,
  // so every bundle is bit-identical to individual extract_upper/lower
  // calls regardless of how the pool schedules the traces.
  auto bundles = common::parallel_map(
      pool, traces,
      [&](const trace::DemandTrace& d) {
        const auto idx = static_cast<std::size_t>(&d - traces.data());
        auto* deg = degradation ? &local[idx] : nullptr;
        ExtractStats stats;
        WorkloadCurve upper = extract_upper(d, shared_ks, &stats, pp, deg, engine);
        WorkloadCurve lower = extract_lower(d, shared_ks, nullptr, pp, deg, engine);
        return CurveBundle{std::move(upper), std::move(lower), stats};
      },
      check);
  if (degradation)
    for (const auto& r : local) degradation->merge(r);
  return bundles;
}

}  // namespace wlc::workload
