#include "trace/arrival_extract.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/assert.h"
#include "obs/obs.h"

namespace wlc::trace {

namespace {

void require_ordered(const TimestampTrace& ts) {
  WLC_REQUIRE(!ts.empty(), "trace must be non-empty");
  WLC_REQUIRE(std::is_sorted(ts.begin(), ts.end()), "timestamps must be non-decreasing");
}

/// Sorted, deduplicated copy of `ks` clamped to [1, limit].
std::vector<std::int64_t> normalized_grid(std::span<const std::int64_t> ks, std::int64_t limit) {
  std::vector<std::int64_t> out;
  out.reserve(ks.size());
  for (std::int64_t k : ks) {
    WLC_REQUIRE(k >= 1, "window sizes must be >= 1");
    out.push_back(std::min(k, limit));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// One k's span extremum, scanned in ascending window order — the retained
/// oracle kernel. Serial and parallel oracle paths share this exact loop,
/// and the fast engines reduce the same candidate set in order-independent
/// reductions, so the result — bit for bit — cannot differ.
TimeSec scan_minspan(const TimestampTrace& ts, std::int64_t n, std::int64_t k) {
  TimeSec best = std::numeric_limits<TimeSec>::infinity();
  for (std::int64_t i = 0; i + k <= n; ++i)
    best = std::min(best, ts[static_cast<std::size_t>(i + k - 1)] - ts[static_cast<std::size_t>(i)]);
  return best;
}

TimeSec scan_maxspan(const TimestampTrace& ts, std::int64_t n, std::int64_t k) {
  TimeSec best = 0.0;
  for (std::int64_t i = 0; i + k <= n; ++i)
    best = std::max(best, ts[static_cast<std::size_t>(i + k - 1)] - ts[static_cast<std::size_t>(i)]);
  return best;
}

enum class Span { Min, Max };

std::vector<TimeSec> spans(const TimestampTrace& ts, std::span<const std::int64_t> ks, Span which,
                           common::ThreadPool* pool, const runtime::RunPolicy* policy,
                           common::GapEngine engine) {
  WLC_TRACE_SPAN(which == Span::Min ? "arrival.minspans" : "arrival.maxspans");
  require_ordered(ts);
  const auto n = static_cast<std::int64_t>(ts.size());
  WLC_COUNTER_ADD("arrival.grid_entries", static_cast<std::int64_t>(ks.size()));
  for (std::int64_t k : ks)
    WLC_REQUIRE(k >= 1 && k <= n, "span window must fit in the trace");
  std::vector<TimeSec> out(ks.size());
  // Same poll cadence in both engines and both threading paths: before every
  // grid entry's scan (plus intra-build polls in the index engine).
  const auto check = [&] {
    if (policy) policy->checkpoint("arrival extraction");
  };
  const std::function<void()> checkpoint = check;
  const auto run_entries = [&](auto&& eval_entry) {
    if (pool) {
      common::parallel_for(*pool, ks.size(), eval_entry, check);
    } else {
      for (std::size_t i = 0; i < ks.size(); ++i) {
        check();
        eval_entry(i);
      }
    }
  };
  switch (common::choose_gap_engine<TimeSec>(engine, n,
                                             policy ? policy->budget.max_resident_bytes : 0)) {
    case common::GapEngine::SharedIndex: {
      WLC_COUNTER_ADD("arrival.engine.shared_index", 1);
      const common::SlidingExtrema<TimeSec> index(ts, &checkpoint);
      std::vector<std::int64_t> scanned(ks.size(), 0);
      run_entries([&](std::size_t i) {
        out[i] = which == Span::Min ? index.min_gap(ks[i] - 1, &scanned[i])
                                    : index.max_gap(ks[i] - 1, &scanned[i]);
      });
      WLC_COUNTER_ADD("arrival.windows_scanned",
                      std::accumulate(scanned.begin(), scanned.end(), std::int64_t{0}));
      break;
    }
    default: {
      WLC_COUNTER_ADD("arrival.engine.oracle", 1);
      run_entries([&](std::size_t i) {
        const std::int64_t k = ks[i];
        WLC_COUNTER_ADD("arrival.windows_scanned", n - k + 1);
        out[i] = which == Span::Min ? scan_minspan(ts, n, k) : scan_maxspan(ts, n, k);
      });
      break;
    }
  }
  return out;
}

EmpiricalArrivalCurve upper_arrival(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                                    common::ThreadPool* pool, const runtime::RunPolicy* policy,
                                    common::GapEngine engine) {
  if (policy) policy->checkpoint("arrival extraction");
  require_ordered(ts);
  const auto n = static_cast<std::int64_t>(ts.size());
  std::vector<std::int64_t> grid = normalized_grid(ks, n);
  if (grid.empty() || grid.back() != n) grid.push_back(n);  // sound top step
  const std::vector<TimeSec> m = spans(ts, grid, Span::Min, pool, policy, engine);

  // On [m(k_i), m(k_{i+1})) at most k_{i+1}-1 events fit (αᵘ(Δ) >= k iff
  // minspan(k) <= Δ); the final step is exactly the trace length.
  std::vector<std::pair<TimeSec, EventCount>> pts;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const EventCount value = (i + 1 < grid.size()) ? grid[i + 1] - 1 : grid[i];
    const TimeSec x = m[i];
    if (!pts.empty() && pts.back().first == x)
      pts.back().second = std::max(pts.back().second, value);
    else
      pts.emplace_back(x, value);
  }
  // Drop redundant equal-value steps.
  std::vector<std::pair<TimeSec, EventCount>> cleaned;
  for (const auto& p : pts)
    if (cleaned.empty() || p.second != cleaned.back().second) cleaned.push_back(p);
  return EmpiricalArrivalCurve(EmpiricalArrivalCurve::Bound::Upper, std::move(cleaned));
}

EmpiricalArrivalCurve lower_arrival(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                                    common::ThreadPool* pool, const runtime::RunPolicy* policy,
                                    common::GapEngine engine) {
  if (policy) policy->checkpoint("arrival extraction");
  require_ordered(ts);
  const auto n = static_cast<std::int64_t>(ts.size());
  // αˡ(Δ) >= k iff maxspan(k+1) <= Δ, so evaluate spans at k+1 (capped at n-1
  // for k so that k+1 fits; the "all n events" step is handled separately).
  std::vector<std::int64_t> grid = normalized_grid(ks, std::max<std::int64_t>(n - 1, 1));
  std::vector<std::pair<TimeSec, EventCount>> pts{{0.0, 0}};
  if (n >= 2) {
    std::vector<std::int64_t> kplus;
    kplus.reserve(grid.size());
    for (std::int64_t k : grid)
      if (k + 1 <= n) kplus.push_back(k + 1);
    std::vector<std::int64_t> kept(grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(kplus.size()));
    const std::vector<TimeSec> span_vals = spans(ts, kplus, Span::Max, pool, policy, engine);
    for (std::size_t i = 0; i < kplus.size(); ++i) {
      const TimeSec x = span_vals[i];
      const EventCount value = kept[i];
      if (!pts.empty() && pts.back().first == x)
        pts.back().second = std::max(pts.back().second, value);
      else if (x > pts.back().first)
        pts.emplace_back(x, std::max(value, pts.back().second));
    }
  }
  // A window as long as the whole observation holds every event.
  const TimeSec total = ts.back() - ts.front();
  if (!pts.empty() && pts.back().first == total)
    pts.back().second = n;
  else if (total > pts.back().first)
    pts.emplace_back(total, n);
  return EmpiricalArrivalCurve(EmpiricalArrivalCurve::Bound::Lower, std::move(pts));
}

}  // namespace

std::vector<TimeSec> minspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              const runtime::RunPolicy* policy, common::GapEngine engine) {
  return spans(ts, ks, Span::Min, nullptr, policy, engine);
}

std::vector<TimeSec> maxspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              const runtime::RunPolicy* policy, common::GapEngine engine) {
  return spans(ts, ks, Span::Max, nullptr, policy, engine);
}

std::vector<TimeSec> minspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              common::ThreadPool& pool, const runtime::RunPolicy* policy,
                              common::GapEngine engine) {
  return spans(ts, ks, Span::Min, &pool, policy, engine);
}

std::vector<TimeSec> maxspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              common::ThreadPool& pool, const runtime::RunPolicy* policy,
                              common::GapEngine engine) {
  return spans(ts, ks, Span::Max, &pool, policy, engine);
}

std::vector<TimeSec> minspans_oracle(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                                     const runtime::RunPolicy* policy) {
  return spans(ts, ks, Span::Min, nullptr, policy, common::GapEngine::Oracle);
}

std::vector<TimeSec> maxspans_oracle(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                                     const runtime::RunPolicy* policy) {
  return spans(ts, ks, Span::Max, nullptr, policy, common::GapEngine::Oracle);
}

EmpiricalArrivalCurve extract_upper_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            const runtime::RunPolicy* policy,
                                            common::GapEngine engine) {
  return upper_arrival(ts, ks, nullptr, policy, engine);
}

EmpiricalArrivalCurve extract_lower_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            const runtime::RunPolicy* policy,
                                            common::GapEngine engine) {
  return lower_arrival(ts, ks, nullptr, policy, engine);
}

EmpiricalArrivalCurve extract_upper_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            common::ThreadPool& pool,
                                            const runtime::RunPolicy* policy,
                                            common::GapEngine engine) {
  return upper_arrival(ts, ks, &pool, policy, engine);
}

EmpiricalArrivalCurve extract_lower_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            common::ThreadPool& pool,
                                            const runtime::RunPolicy* policy,
                                            common::GapEngine engine) {
  return lower_arrival(ts, ks, &pool, policy, engine);
}

EventCount max_events_in_window(const TimestampTrace& ts, TimeSec delta) {
  require_ordered(ts);
  WLC_REQUIRE(delta >= 0.0, "window length must be non-negative");
  EventCount best = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto it = std::upper_bound(ts.begin() + static_cast<std::ptrdiff_t>(i), ts.end(),
                                     ts[i] + delta);
    best = std::max(best, static_cast<EventCount>(std::distance(ts.begin() + static_cast<std::ptrdiff_t>(i), it)));
  }
  return best;
}

EventCount min_events_in_window(const TimestampTrace& ts, TimeSec delta) {
  require_ordered(ts);
  WLC_REQUIRE(delta >= 0.0, "window length must be non-negative");
  const TimeSec total = ts.back() - ts.front();
  if (delta >= total) return static_cast<EventCount>(ts.size());
  EventCount best = std::numeric_limits<EventCount>::max();
  // Candidate minimizing placements start just after an event.
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] + delta >= ts.back()) break;  // window would stick out of the observation
    const auto lo = std::upper_bound(ts.begin(), ts.end(), ts[i]);
    const auto hi = std::upper_bound(ts.begin(), ts.end(), ts[i] + delta);
    best = std::min(best, static_cast<EventCount>(std::distance(lo, hi)));
  }
  if (best == std::numeric_limits<EventCount>::max()) best = static_cast<EventCount>(ts.size());
  return best;
}

}  // namespace wlc::trace
