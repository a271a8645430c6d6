#include "runtime/runtime.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/assert.h"
#include "common/json.h"
#include "obs/obs.h"

namespace wlc::runtime {

CancelToken CancelToken::make() { return CancelToken(std::make_shared<State>()); }

CancelToken CancelToken::child() const {
  WLC_REQUIRE(armed(), "child() needs an armed parent token");
  auto state = std::make_shared<State>();
  state->parent = state_;
  return CancelToken(std::move(state));
}

void CancelToken::cancel() const {
  WLC_REQUIRE(armed(), "cancel() needs an armed token");
  state_->flag.store(true, std::memory_order_relaxed);
}

Deadline Deadline::after(Clock::duration d) { return at(Clock::now() + d); }

Deadline Deadline::at(Clock::time_point tp) {
  Deadline dl;
  dl.when_ = tp;
  dl.armed_ = true;
  return dl;
}

double Deadline::remaining_seconds() const {
  if (!armed_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(when_ - Clock::now()).count();
}

void RunPolicy::checkpoint(const char* where) const {
  WLC_COUNTER_ADD("runtime.checkpoints", 1);
  if (token.cancelled()) {
    WLC_COUNTER_ADD("runtime.cancel_trips", 1);
    throw CancelledError(CancelledError::Reason::Token,
                         std::string("operation cancelled during ") + where, "", __FILE__,
                         __LINE__);
  }
  if (deadline.expired()) {
    WLC_COUNTER_ADD("runtime.deadline_trips", 1);
    throw CancelledError(CancelledError::Reason::Deadline,
                         std::string("deadline expired during ") + where, "", __FILE__, __LINE__);
  }
}

bool DegradationReport::degraded() const {
  return grid_points_used < grid_points_requested || rows_used < rows_requested ||
         events_analyzed < events_requested || !aborted.empty();
}

void DegradationReport::note(std::string action) {
  static constexpr std::size_t kMaxActions = 16;
  if (actions.size() < kMaxActions) actions.push_back(std::move(action));
}

void DegradationReport::merge(const DegradationReport& other) {
  grid_points_requested += other.grid_points_requested;
  grid_points_used += other.grid_points_used;
  rows_requested += other.rows_requested;
  rows_used += other.rows_used;
  events_requested += other.events_requested;
  events_analyzed += other.events_analyzed;
  if (aborted.empty()) aborted = other.aborted;
  for (const auto& a : other.actions) note(a);
}

std::string DegradationReport::to_string() const {
  if (!degraded()) return "no degradation";
  std::ostringstream os;
  const char* sep = "";
  if (grid_points_used < grid_points_requested) {
    os << sep << "k-grid coarsened to " << grid_points_used << " of " << grid_points_requested
       << " points";
    sep = "; ";
  }
  if (rows_used < rows_requested) {
    os << sep << "kept first " << rows_used << " of " << rows_requested << " trace rows";
    sep = "; ";
  }
  if (events_analyzed < events_requested) {
    os << sep << "analyzed first " << events_analyzed << " of " << events_requested << " events";
    sep = "; ";
  }
  if (!aborted.empty()) {
    os << sep << "run aborted (" << aborted << ")";
    sep = "; ";
  }
  os << " — bounds stay conservative for the analyzed work";
  return os.str();
}

std::string DegradationReport::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"degraded\": " << (degraded() ? "true" : "false") << ",\n"
     << "  \"aborted\": \"" << common::json_escape(aborted) << "\",\n"
     << "  \"grid_points\": {\"requested\": " << grid_points_requested
     << ", \"used\": " << grid_points_used << "},\n"
     << "  \"rows\": {\"requested\": " << rows_requested << ", \"used\": " << rows_used << "},\n"
     << "  \"events\": {\"requested\": " << events_requested
     << ", \"analyzed\": " << events_analyzed << "},\n"
     << "  \"actions\": [";
  for (std::size_t i = 0; i < actions.size(); ++i)
    os << (i ? ", " : "") << "\"" << common::json_escape(actions[i]) << "\"";
  os << "]\n}\n";
  return os.str();
}

std::vector<std::int64_t> coarsen_grid(std::span<const std::int64_t> ks,
                                       std::int64_t max_points) {
  std::vector<std::int64_t> out(ks.begin(), ks.end());
  if (max_points <= 0 || static_cast<std::int64_t>(out.size()) <= max_points) return out;
  WLC_ASSERT(std::is_sorted(out.begin(), out.end()));
  const std::size_t n = out.size();
  const std::size_t m = static_cast<std::size_t>(std::max<std::int64_t>(2, max_points));
  std::vector<std::int64_t> kept;
  kept.reserve(m);
  // Evenly spaced indices with both endpoints pinned; rounding can repeat an
  // index, so dedup keeps the result strictly increasing.
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t idx = (i * (n - 1) + (m - 1) / 2) / (m - 1);
    if (kept.empty() || out[idx] != kept.back()) kept.push_back(out[idx]);
  }
  return kept;
}

std::vector<std::int64_t> apply_grid_budget(std::vector<std::int64_t> ks,
                                            const RunPolicy* policy,
                                            DegradationReport* degradation,
                                            const std::string& what) {
  if (!policy || policy->grid_within_budget(static_cast<std::int64_t>(ks.size()))) return ks;
  if (policy->on_budget == OnBudget::Fail)
    throw BudgetExceededError(
        "grid_points",
        what + " needs " + std::to_string(ks.size()) +
            " k-grid points but the budget allows " +
            std::to_string(policy->budget.max_grid_points),
        std::to_string(ks.size()), __FILE__, __LINE__);
  const auto requested = static_cast<std::int64_t>(ks.size());
  std::vector<std::int64_t> coarse = coarsen_grid(ks, policy->budget.max_grid_points);
  WLC_COUNTER_ADD("runtime.degradations", 1);
  WLC_COUNTER_ADD("runtime.shed_grid_points",
                  requested - static_cast<std::int64_t>(coarse.size()));
  if (degradation) {
    degradation->grid_points_requested += requested;
    degradation->grid_points_used += static_cast<std::int64_t>(coarse.size());
    degradation->note(std::string("coarsened ") + what + " k-grid from " +
                      std::to_string(requested) + " to " + std::to_string(coarse.size()) +
                      " points (bounds stay conservative, merely less tight)");
  }
  return coarse;
}

}  // namespace wlc::runtime
