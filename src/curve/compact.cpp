#include "curve/compact.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"

namespace wlc::curve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double grid_x(std::uint64_t i, double dt) { return static_cast<double>(i) * dt; }

/// The one floating-point expression every sample is verified through and
/// eval() replays: fl(y + s·(x − xa)). At x == xa the subtraction cancels
/// exactly, so knot values round-trip bit-for-bit.
double eval_with(double y, double s, double xa, double x) { return y + s * (x - xa); }

/// Few-ulp corridor shrink reserved for the repair pass: fitting targets
/// ε − margin so post-fit dominance repair (which moves values by rounding
/// noise only) can never push a sample past the user's ε. 64 ulps of the
/// local value scale dwarfs the ≤ ~4-ulp noise of quotient + interpolation
/// rounding while staying negligible against any budget a caller would set.
double corridor_margin(double vj, double ya) {
  const double scale = std::max(std::fabs(vj), std::fabs(ya));
  return 64.0 * std::numeric_limits<double>::epsilon() * scale;
}

}  // namespace

CompactCurve::CompactCurve(std::vector<Knot> knots, double dt, std::uint64_t n,
                           CompactRounding rounding, CompactBudget budget,
                           double max_error)
    : knots_(std::move(knots)),
      dt_(dt),
      n_(n),
      rounding_(rounding),
      budget_(budget),
      max_error_(max_error) {}

CompactCurve CompactCurve::compact(const DiscreteCurve& c, const CompactBudget& budget,
                                   CompactRounding rounding) {
  if (!(budget.eps_abs >= 0.0) || !(budget.eps_rel >= 0.0) ||
      !std::isfinite(budget.eps_abs) || !std::isfinite(budget.eps_rel))
    throw DomainError("compact: error budget must be finite and non-negative",
                      std::to_string(budget.eps_abs) + "/" + std::to_string(budget.eps_rel),
                      __FILE__, __LINE__);
  const std::vector<double>& v = c.values();
  const std::uint64_t n = c.size();
  const double dt = c.dt();
  for (double x : v)
    if (!std::isfinite(x))
      throw DomainError("compact: curve has a non-finite sample", std::to_string(x),
                        __FILE__, __LINE__);
  // Grid positions must be distinct in double precision (ulp spacing grows
  // with magnitude, so the top pair is the tightest; if it is strict, every
  // pair is).
  if (n >= 2 && !(grid_x(n - 1, dt) > grid_x(n - 2, dt)))
    throw DomainError("compact: grid positions collide in double precision",
                      std::to_string(dt), __FILE__, __LINE__);

  const bool up = rounding == CompactRounding::Up;
  // The monotone-preservation guarantee (and its slope clamp) applies to
  // the curves the paper produces: non-decreasing and non-negative.
  const bool monotone = c.is_non_decreasing(0.0) && v[0] >= 0.0;

  std::vector<Knot> knots;
  double max_err = 0.0;

  if (n == 1) {
    knots.push_back(Knot{0, v[0], 0.0});
    return CompactCurve(std::move(knots), dt, n, rounding, budget, 0.0);
  }

  // Emits exact per-sample knots for [a, b): y pinned to the sample
  // bit-for-bit (zero error at every grid point — the one representation
  // that honors any budget), slope aimed at the next sample and nudged so
  // non-grid evaluation stays on the sound side. The terminal fallback for
  // windows whose fitted segment could not be repaired within budget.
  const auto emit_exact_run = [&](std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t j = a; j < b; ++j) {
      const double xj = grid_x(j, dt);
      double s = (v[j + 1] - v[j]) / (grid_x(j + 1, dt) - xj);
      if (up && monotone && s < 0) s = 0.0;
      for (int it = 0; it < 8; ++it) {
        const double end = eval_with(v[j], s, xj, grid_x(j + 1, dt));
        if (up ? end >= v[j + 1] : end <= v[j + 1]) break;
        s = std::nextafter(s, up ? kInf : -kInf);
      }
      knots.push_back(Knot{j, v[j], s});
    }
    // A run ending at the horizon leaves the last sample owned by the
    // nudged segment before it; pin it exactly with a terminal flat knot
    // (the main loops emit the knot at b themselves for interior windows).
    if (b == n - 1) knots.push_back(Knot{n - 1, v[n - 1], 0.0});
  };

  std::uint64_t a = 0;
  double ya = v[0];

  if (budget.zero()) {
    // Exact tier: merge only runs that floating-point interpolation
    // reproduces bit-for-bit; anything else becomes a per-sample knot.
    // expand() is then bit-identical to the input by construction.
    while (a < n - 1) {
      const double xa = grid_x(a, dt);
      const double s = (v[a + 1] - ya) / (grid_x(a + 1, dt) - xa);
      std::uint64_t b = a;
      while (b + 1 <= n - 1 &&
             eval_with(ya, s, xa, grid_x(b + 1, dt)) == v[b + 1])
        ++b;
      if (b == a) {
        emit_exact_run(a, a + 1);
        ++a;
      } else {
        knots.push_back(Knot{a, ya, s});
        a = b;
      }
      ya = v[a];
    }
    return CompactCurve(std::move(knots), dt, n, rounding, budget, 0.0);
  }

  while (a < n - 1) {
    const double xa = grid_x(a, dt);
    // Greedy slope cone: the set of slopes keeping every covered sample
    // inside its (margin-shrunk) corridor. Intersect one constraint pair
    // per sample; close the segment when the cone empties.
    double smin = (up && monotone) ? 0.0 : -kInf;
    double smax = kInf;
    std::uint64_t b = a;
    for (std::uint64_t j = a + 1; j <= n - 1; ++j) {
      const double dx = grid_x(j, dt) - xa;
      const double eps_eff = std::max(0.0, budget.at(v[j]) - corridor_margin(v[j], ya));
      const double lo = up ? (v[j] - ya) / dx : (v[j] - eps_eff - ya) / dx;
      const double hi = up ? (v[j] + eps_eff - ya) / dx : (v[j] - ya) / dx;
      const double nsmin = std::max(smin, lo);
      const double nsmax = std::min(smax, hi);
      if (nsmin > nsmax) break;
      smin = nsmin;
      smax = nsmax;
      b = j;
    }
    if (b == a) {
      // Only reachable under the monotone slope clamp (an unclamped cone
      // always admits the first step). A flat single step is sound there:
      // ya dominates v[a+1]'s corridor from above within ε (monotone
      // non-negative ⇒ ε is non-decreasing along the curve).
      b = a + 1;
      smin = smax = 0.0;
    }
    // Hug the original: smallest feasible slope from above, largest from
    // below.
    double s = up ? smin : smax;

    // Verify every covered sample through eval's own expression and repair
    // by shifting the whole segment away from the original — the measured
    // deficit first, then single-ulp nudges for the rounding of the shift
    // itself. Dominance is re-established exactly; the shift is rounding
    // noise, absorbed by the corridor margin.
    double y0 = ya;
    const auto deficit = [&](double y) {
      double worst = 0.0;
      for (std::uint64_t j = a; j <= b; ++j) {
        const double val = eval_with(y, s, xa, grid_x(j, dt));
        worst = std::max(worst, up ? v[j] - val : val - v[j]);
      }
      return worst;
    };
    double def = deficit(y0);
    for (int it = 0; it < 12 && def > 0.0; ++it) {
      y0 = it == 0 ? (up ? y0 + def : y0 - def) : std::nextafter(y0, up ? kInf : -kInf);
      def = deficit(y0);
    }
    bool within_budget = def <= 0.0;
    double seg_err = 0.0;
    if (within_budget) {
      for (std::uint64_t j = a; j <= b; ++j) {
        const double err = std::fabs(eval_with(y0, s, xa, grid_x(j, dt)) - v[j]);
        if (err > budget.at(v[j])) {
          within_budget = false;
          break;
        }
        seg_err = std::max(seg_err, err);
      }
    }
    if (!within_budget) {
      emit_exact_run(a, b);
      a = b;
      ya = v[b];
      continue;
    }
    knots.push_back(Knot{a, y0, s});
    max_err = std::max(max_err, seg_err);
    ya = eval_with(y0, s, xa, grid_x(b, dt));  // continuity anchor
    a = b;
  }
  return CompactCurve(std::move(knots), dt, n, rounding, budget, max_err);
}

CompactCurve CompactCurve::compact_upper(const DiscreteCurve& c,
                                         const CompactBudget& budget) {
  return compact(c, budget, CompactRounding::Up);
}

CompactCurve CompactCurve::compact_lower(const DiscreteCurve& c,
                                         const CompactBudget& budget) {
  return compact(c, budget, CompactRounding::Down);
}

CompactCurve CompactCurve::from_knots(std::vector<Knot> knots, double dt,
                                      std::uint64_t dense_size, CompactRounding rounding,
                                      CompactBudget budget, double max_error) {
  if (!(dt > 0.0) || !std::isfinite(dt))
    throw DomainError("compact knots: dt must be positive and finite", std::to_string(dt),
                      __FILE__, __LINE__);
  if (dense_size == 0)
    throw DomainError("compact knots: dense size must be positive", "0", __FILE__,
                      __LINE__);
  if (knots.empty())
    throw DomainError("compact knots: knot list is empty", "", __FILE__, __LINE__);
  if (knots.front().i != 0)
    throw DomainError("compact knots: first knot must sit at index 0",
                      std::to_string(knots.front().i), __FILE__, __LINE__);
  for (std::size_t k = 0; k < knots.size(); ++k) {
    if (knots[k].i >= dense_size)
      throw DomainError("compact knots: knot index beyond the dense horizon",
                        std::to_string(knots[k].i), __FILE__, __LINE__);
    if (k > 0 && knots[k].i <= knots[k - 1].i)
      throw DomainError("compact knots: indices must be strictly increasing",
                        std::to_string(knots[k].i), __FILE__, __LINE__);
    if (!std::isfinite(knots[k].y) || !std::isfinite(knots[k].slope))
      throw DomainError("compact knots: non-finite knot value or slope",
                        std::to_string(knots[k].y), __FILE__, __LINE__);
  }
  if (!(max_error >= 0.0) || !std::isfinite(max_error))
    throw DomainError("compact knots: recorded max error must be finite and non-negative",
                      std::to_string(max_error), __FILE__, __LINE__);
  if (!(budget.eps_abs >= 0.0) || !(budget.eps_rel >= 0.0) ||
      !std::isfinite(budget.eps_abs) || !std::isfinite(budget.eps_rel))
    throw DomainError("compact knots: budget must be finite and non-negative",
                      std::to_string(budget.eps_abs), __FILE__, __LINE__);
  return CompactCurve(std::move(knots), dt, dense_size, rounding, budget, max_error);
}

std::size_t CompactCurve::segment_for(double x) const {
  // Last knot with i·dt ≤ x. Grid positions are strictly increasing, so
  // binary search on the integer index is equivalent.
  std::size_t lo = 0, hi = knots_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (grid_x(knots_[mid].i, dt_) <= x)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

double CompactCurve::eval(double x) const {
  if (x < 0.0) x = 0.0;
  const double h = horizon();
  if (x > h) x = h;
  const Knot& k = knots_[segment_for(x)];
  return eval_with(k.y, k.slope, grid_x(k.i, dt_), x);
}

double CompactCurve::eval_index(std::uint64_t i) const {
  WLC_ASSERT(i < n_);
  return eval(grid_x(i, dt_));
}

DiscreteCurve CompactCurve::expand() const {
  std::vector<double> out(n_);
  std::size_t k = 0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    while (k + 1 < knots_.size() && knots_[k + 1].i <= i) ++k;
    out[i] = eval_with(knots_[k].y, knots_[k].slope, grid_x(knots_[k].i, dt_),
                       grid_x(i, dt_));
  }
  return DiscreteCurve(std::move(out), dt_);
}

}  // namespace wlc::curve
