#include "curve/discrete_curve.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "curve/engine.h"
#include "curve/pwl_curve.h"

namespace wlc::curve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

void require_compatible(const DiscreteCurve& a, const DiscreteCurve& b) {
  WLC_REQUIRE(a.dt() == b.dt(), "operands must share the grid spacing");
}
}  // namespace

DiscreteCurve::DiscreteCurve(std::vector<double> values, double dt)
    : v_(std::move(values)), dt_(dt) {
  WLC_REQUIRE(!v_.empty(), "curve needs at least one sample");
  WLC_REQUIRE(dt_ > 0.0, "grid spacing must be positive");
}

DiscreteCurve::DiscreteCurve(const DiscreteCurve& other)
    : v_(other.v_),
      dt_(other.dt_),
      shape_cache_(other.shape_cache_.load(std::memory_order_relaxed)),
      monotone_cache_(other.monotone_cache_.load(std::memory_order_relaxed)) {}

DiscreteCurve::DiscreteCurve(DiscreteCurve&& other) noexcept
    : v_(std::move(other.v_)),
      dt_(other.dt_),
      shape_cache_(other.shape_cache_.load(std::memory_order_relaxed)),
      monotone_cache_(other.monotone_cache_.load(std::memory_order_relaxed)) {}

DiscreteCurve& DiscreteCurve::operator=(const DiscreteCurve& other) {
  v_ = other.v_;
  dt_ = other.dt_;
  shape_cache_.store(other.shape_cache_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  monotone_cache_.store(other.monotone_cache_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return *this;
}

DiscreteCurve& DiscreteCurve::operator=(DiscreteCurve&& other) noexcept {
  v_ = std::move(other.v_);
  dt_ = other.dt_;
  shape_cache_.store(other.shape_cache_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  monotone_cache_.store(other.monotone_cache_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return *this;
}

DiscreteCurve DiscreteCurve::sample(const PwlCurve& c, double dt, std::size_t n) {
  WLC_REQUIRE(n > 0, "need at least one sample");
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = c.eval(dt * static_cast<double>(i));
  return DiscreteCurve(std::move(v), dt);
}

DiscreteCurve DiscreteCurve::zeros(std::size_t n, double dt) {
  return DiscreteCurve(std::vector<double>(n, 0.0), dt);
}

double DiscreteCurve::eval_floor(double x) const {
  WLC_REQUIRE(x >= 0.0, "curves are defined on [0, inf)");
  const auto i = static_cast<std::size_t>(std::floor(x / dt_));
  WLC_REQUIRE(i < v_.size(), "evaluation beyond curve horizon");
  return v_[i];
}

double DiscreteCurve::eval_linear(double x) const {
  WLC_REQUIRE(x >= 0.0, "curves are defined on [0, inf)");
  const double pos = x / dt_;
  const auto i = static_cast<std::size_t>(std::floor(pos));
  WLC_REQUIRE(i < v_.size(), "evaluation beyond curve horizon");
  if (i + 1 == v_.size()) return v_[i];
  const double frac = pos - static_cast<double>(i);
  return v_[i] + frac * (v_[i + 1] - v_[i]);
}

DiscreteCurve operator+(const DiscreteCurve& a, const DiscreteCurve& b) {
  require_compatible(a, b);
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = a[i] + b[i];
  return DiscreteCurve(std::move(v), a.dt());
}

DiscreteCurve operator-(const DiscreteCurve& a, const DiscreteCurve& b) {
  require_compatible(a, b);
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = a[i] - b[i];
  return DiscreteCurve(std::move(v), a.dt());
}

DiscreteCurve operator*(double s, const DiscreteCurve& a) {
  std::vector<double> v(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) v[i] = s * a[i];
  return DiscreteCurve(std::move(v), a.dt());
}

DiscreteCurve DiscreteCurve::pointwise_min(const DiscreteCurve& a, const DiscreteCurve& b) {
  require_compatible(a, b);
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::min(a[i], b[i]);
  return DiscreteCurve(std::move(v), a.dt());
}

DiscreteCurve DiscreteCurve::pointwise_max(const DiscreteCurve& a, const DiscreteCurve& b) {
  require_compatible(a, b);
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::max(a[i], b[i]);
  return DiscreteCurve(std::move(v), a.dt());
}

DiscreteCurve DiscreteCurve::clamp_floor(double floor_value) const {
  std::vector<double> v(v_);
  for (double& x : v) x = std::max(x, floor_value);
  return DiscreteCurve(std::move(v), dt_);
}

DiscreteCurve DiscreteCurve::non_decreasing_closure() const {
  std::vector<double> v(v_);
  for (std::size_t i = 1; i < v.size(); ++i) v[i] = std::max(v[i], v[i - 1]);
  return DiscreteCurve(std::move(v), dt_);
}

DiscreteCurve DiscreteCurve::with_origin(double y0) const {
  std::vector<double> v(v_);
  v[0] += y0;
  return DiscreteCurve(std::move(v), dt_);
}

// ---- engine dispatch --------------------------------------------------------
// The public operators route through the shape-aware engine; the *_naive
// forms below keep the original double loops as the differential oracle.

DiscreteCurve DiscreteCurve::min_plus_conv(const DiscreteCurve& f, const DiscreteCurve& g) {
  return engine::apply(CurveOp::MinPlusConv, f, g);
}

DiscreteCurve DiscreteCurve::min_plus_deconv(const DiscreteCurve& f, const DiscreteCurve& g) {
  return engine::apply(CurveOp::MinPlusDeconv, f, g);
}

DiscreteCurve DiscreteCurve::max_plus_conv(const DiscreteCurve& f, const DiscreteCurve& g) {
  return engine::apply(CurveOp::MaxPlusConv, f, g);
}

DiscreteCurve DiscreteCurve::max_plus_deconv(const DiscreteCurve& f, const DiscreteCurve& g) {
  return engine::apply(CurveOp::MaxPlusDeconv, f, g);
}

DiscreteCurve DiscreteCurve::min_plus_conv_naive(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, kInf);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k <= i; ++k) v[i] = std::min(v[i], f[i - k] + g[k]);
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve DiscreteCurve::min_plus_deconv_naive(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n, -kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    for (std::size_t k = 0; k < kmax; ++k) v[i] = std::max(v[i], f[i + k] - g[k]);
  }
  // Defensive: positions with an empty split window would inherit f. With
  // non-empty operands kmax >= 1 everywhere, so this never fires — see the
  // split-window convention in the header.
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] == -kInf) v[i] = f[i];
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve DiscreteCurve::max_plus_conv_naive(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, -kInf);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k <= i; ++k) v[i] = std::max(v[i], f[i - k] + g[k]);
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve DiscreteCurve::max_plus_deconv_naive(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    for (std::size_t k = 0; k < kmax; ++k) v[i] = std::min(v[i], f[i + k] - g[k]);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] == kInf) v[i] = f[i];
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve DiscreteCurve::sub_additive_closure() const {
  for (double x : v_) WLC_REQUIRE(x >= 0.0, "closure requires a non-negative curve");
  std::vector<double> g(v_);
  g[0] = 0.0;  // the closure is anchored at the origin
  DiscreteCurve cur(std::move(g), dt_);
  for (std::size_t iter = 0; iter < 8 * sizeof(std::size_t); ++iter) {
    DiscreteCurve next = pointwise_min(cur, min_plus_conv(cur, cur));
    if (next.values() == cur.values()) break;
    cur = std::move(next);
  }
  return cur;
}

double DiscreteCurve::sup_diff(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  double best = -kInf;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, f[i] - g[i]);
  return best;
}

double DiscreteCurve::horizontal_deviation(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  WLC_REQUIRE(g.is_non_decreasing(), "horizontal deviation needs a non-decreasing g");
  double worst = 0.0;
  const auto& gv = g.values();
  for (std::size_t i = 0; i < f.size(); ++i) {
    // Smallest j >= i with g(j) >= f(i); binary search is valid because g is
    // non-decreasing (f need not be).
    if (i >= gv.size()) return kInf;
    const auto it = std::lower_bound(gv.begin() + static_cast<std::ptrdiff_t>(i), gv.end(), f[i]);
    if (it == gv.end()) return kInf;
    const auto j = static_cast<std::size_t>(std::distance(gv.begin(), it));
    worst = std::max(worst, static_cast<double>(j - i) * f.dt());
  }
  return worst;
}

DiscreteCurve::Shape DiscreteCurve::shape() const {
  const auto cached = shape_cache_.load(std::memory_order_relaxed);
  if (cached != 0) return static_cast<Shape>(cached);
  // Exact classification on the rounded increments. Differences of doubles
  // are zero iff the samples are equal, so Constant detection is exact too.
  bool nondecr = true;   // increments non-decreasing → convex
  bool nonincr = true;   // increments non-increasing → concave
  bool all_equal = true; // all increments equal      → affine
  bool all_zero = true;  // all samples equal         → constant
  const double d0 = v_.size() > 1 ? v_[1] - v_[0] : 0.0;
  for (std::size_t i = 1; i < v_.size(); ++i) {
    const double d = v_[i] - v_[i - 1];
    const double prev = i > 1 ? v_[i - 1] - v_[i - 2] : d;
    if (d < prev) nondecr = false;
    if (d > prev) nonincr = false;
    if (d != d0) all_equal = false;
    if (d != 0.0) all_zero = false;
  }
  Shape s = Shape::General;
  if (all_zero) s = Shape::Constant;
  else if (all_equal) s = Shape::Affine;
  else if (nondecr) s = Shape::Convex;
  else if (nonincr) s = Shape::Concave;
  shape_cache_.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
  return s;
}

bool DiscreteCurve::is_concave(double tol) const {
  if (tol == 0.0) return shape_is_concave(shape());
  for (std::size_t i = 2; i < v_.size(); ++i)
    if (v_[i] - v_[i - 1] > v_[i - 1] - v_[i - 2] + tol) return false;
  return true;
}

bool DiscreteCurve::is_convex(double tol) const {
  if (tol == 0.0) return shape_is_convex(shape());
  for (std::size_t i = 2; i < v_.size(); ++i)
    if (v_[i] - v_[i - 1] < v_[i - 1] - v_[i - 2] - tol) return false;
  return true;
}

bool DiscreteCurve::is_non_decreasing(double tol) const {
  if (tol == 0.0) {
    const auto cached = monotone_cache_.load(std::memory_order_relaxed);
    if (cached != 0) return cached == 1;
  }
  bool ok = true;
  for (std::size_t i = 1; i < v_.size(); ++i)
    if (v_[i] < v_[i - 1] - tol) {
      ok = false;
      break;
    }
  if (tol == 0.0)
    monotone_cache_.store(ok ? 1 : 2, std::memory_order_relaxed);
  return ok;
}

double DiscreteCurve::inverse_lower(double y) const {
  if (is_non_decreasing()) {
    // O(log n): first grid point with f >= y.
    const auto it = std::lower_bound(v_.begin(), v_.end(), y);
    if (it == v_.end()) return kInf;
    return dt_ * static_cast<double>(std::distance(v_.begin(), it));
  }
  for (std::size_t i = 0; i < v_.size(); ++i)
    if (v_[i] >= y) return dt_ * static_cast<double>(i);
  return kInf;
}

double DiscreteCurve::inverse_upper(double y) const {
  if (is_non_decreasing()) {
    // O(log n): last grid point before f first exceeds y.
    const auto it = std::upper_bound(v_.begin(), v_.end(), y);
    if (it == v_.begin()) return -1.0;
    if (it == v_.end()) return horizon();
    return dt_ * static_cast<double>(std::distance(v_.begin(), it) - 1);
  }
  if (v_[0] > y) return -1.0;
  for (std::size_t i = 1; i < v_.size(); ++i)
    if (v_[i] > y) return dt_ * static_cast<double>(i - 1);
  return horizon();
}

}  // namespace wlc::curve
