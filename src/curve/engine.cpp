#include "curve/engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <vector>

#include "common/assert.h"
#include "obs/obs.h"

namespace wlc::curve::engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using Shape = DiscreteCurve::Shape;

std::atomic<bool> g_fast_paths{true};
std::atomic<bool> g_use_cache{true};
std::atomic<std::int64_t> g_fast_count{0};
std::atomic<std::int64_t> g_dense_count{0};

void require_compatible(const DiscreteCurve& a, const DiscreteCurve& b) {
  WLC_REQUIRE(a.dt() == b.dt(), "operands must share the grid spacing");
}

// ---- convolution fast paths -------------------------------------------------
//
// Each kernel emits exactly the oracle's expression at the optimal split —
// fl(f[a] + g[b]) — so the result is one of the oracle's candidates, and
// optimality of the split in real arithmetic plus monotonicity of rounding
// (x ≤ y ⇒ fl(x+c) ≤ fl(y+c)) makes it *the* extremal candidate. The split
// arguments compare rounded quantities, which is exact whenever the sample
// increments are representable (integer cycle counts, dyadic grids) — the
// regime the differential suite pins bit-identity in.

// One operand constant (= c): every split collapses to other[j] + c, so the
// conv is the running extremum of fl(other[j] + c). Addition commutes in
// IEEE-754, so which operand was constant does not matter.
template <bool kMin>
DiscreteCurve conv_constant(const DiscreteCurve& other, double c, std::size_t n) {
  std::vector<double> v(n);
  double best = kMin ? kInf : -kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double cand = other[i] + c;
    best = kMin ? std::min(best, cand) : std::max(best, cand);
    v[i] = best;
  }
  return DiscreteCurve(std::move(v), other.dt());
}

// Endpoint rule: the split objective k ↦ f(i−k) + g(k) is concave when both
// operands are concave (second difference = Δg − Δf reversed-index ≤ 0), so
// the min sits at k = 0 or k = i; dually the max over convex operands.
template <bool kMin>
DiscreteCurve conv_endpoint(const DiscreteCurve& f, const DiscreteCurve& g,
                            std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = f[i] + g[0];
    const double b = f[0] + g[i];
    v[i] = kMin ? std::min(a, b) : std::max(a, b);
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// Slope merge with index tracking: for convex operands the optimal split of
// step i is one step further along f or g than the optimal split of step
// i−1 (the classical ascending-increment merge). We advance whichever curve
// yields the smaller *candidate value* — comparing fl(f[fi+1]+g[gi]) with
// fl(f[fi]+g[gi+1]) is the increment comparison Δf ≤ Δg in disguise — and
// emit that candidate directly instead of accumulating increments (which
// drifts by ulps). Dually, concave
// operands take the larger candidate for the (max,+) conv.
template <bool kMin>
DiscreteCurve conv_merge(const DiscreteCurve& f, const DiscreteCurve& g,
                         std::size_t n) {
  std::vector<double> v(n);
  v[0] = f[0] + g[0];
  std::size_t fi = 0, gi = 0;  // fi + gi == i - 1 inside the loop
  for (std::size_t i = 1; i < n; ++i) {
    const double via_f = f[fi + 1] + g[gi];
    const double via_g = f[fi] + g[gi + 1];
    const bool advance_f = kMin ? (via_f <= via_g) : (via_f >= via_g);
    if (advance_f) {
      ++fi;
      v[i] = via_f;
    } else {
      ++gi;
      v[i] = via_g;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// ---- deconvolution fast paths ----------------------------------------------
//
// (f ⊘ g)(i) extremizes h(k) = f(i+k) − g(k) over k < kmax(i) =
// min(g.size, f.size − i). The second difference of h is Δf − Δg, so
// convex-f/concave-g makes h convex (extrema at the window endpoints for the
// max, at the valley for the min) and concave-f/convex-g makes h concave
// (peak for the max, endpoints for the min). The valley/peak is found by
// binary search on the monotone predicate Δf ≷ Δg; the extremal candidate's
// two neighbours are also evaluated, which costs nothing and absorbs
// ulp-level predicate wobble on non-dyadic inputs.

// g constant (= c) covering f's whole horizon: kmax(i) = n − i, so the
// window is the full suffix and fl(ext_k f[i+k] − c) = ext_k fl(f[i+k] − c)
// by rounding monotonicity; the suffix extremum itself is exact.
template <bool kMaxExtremum>
DiscreteCurve deconv_constant(const DiscreteCurve& f, double c) {
  const std::size_t n = f.size();
  std::vector<double> v(n);
  double ext = kMaxExtremum ? -kInf : kInf;
  for (std::size_t i = n; i-- > 0;) {
    ext = kMaxExtremum ? std::max(ext, f[i]) : std::min(ext, f[i]);
    v[i] = ext - c;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

template <bool kMaxExtremum>
DiscreteCurve deconv_endpoint(const DiscreteCurve& f, const DiscreteCurve& g) {
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);  // >= 1 always
    double best = f[i] - g[0];
    if (kmax > 1) {
      const double far = f[i + kmax - 1] - g[kmax - 1];
      best = kMaxExtremum ? std::max(best, far) : std::min(best, far);
    }
    v[i] = best;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

template <bool kMaxExtremum>
DiscreteCurve deconv_search(const DiscreteCurve& f, const DiscreteCurve& g) {
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    // Partition point of "h still moving toward the extremum": for the max
    // (h concave) that is Δf > Δg; for the min (h convex) it is Δf < Δg.
    std::size_t lo = 0, hi = kmax - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double df = f[i + mid + 1] - f[i + mid];
      const double dg = g[mid + 1] - g[mid];
      const bool keep_going = kMaxExtremum ? (df > dg) : (df < dg);
      if (keep_going) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    double best = f[i + lo] - g[lo];
    if (lo > 0) {
      const double c = f[i + lo - 1] - g[lo - 1];
      best = kMaxExtremum ? std::max(best, c) : std::min(best, c);
    }
    if (lo + 1 < kmax) {
      const double c = f[i + lo + 1] - g[lo + 1];
      best = kMaxExtremum ? std::max(best, c) : std::min(best, c);
    }
    v[i] = best;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

std::optional<DiscreteCurve> try_fast(CurveOp op, const DiscreteCurve& f,
                                      const DiscreteCurve& g) {
  const Shape sf = f.shape();
  const Shape sg = g.shape();
  switch (op) {
    case CurveOp::MinPlusConv: {
      const std::size_t n = std::min(f.size(), g.size());
      if (sg == Shape::Constant) return conv_constant<true>(f, g[0], n);
      if (sf == Shape::Constant) return conv_constant<true>(g, f[0], n);
      if (shape_is_concave(sf) && shape_is_concave(sg)) return conv_endpoint<true>(f, g, n);
      if (shape_is_convex(sf) && shape_is_convex(sg)) return conv_merge<true>(f, g, n);
      return std::nullopt;
    }
    case CurveOp::MaxPlusConv: {
      const std::size_t n = std::min(f.size(), g.size());
      if (sg == Shape::Constant) return conv_constant<false>(f, g[0], n);
      if (sf == Shape::Constant) return conv_constant<false>(g, f[0], n);
      if (shape_is_convex(sf) && shape_is_convex(sg)) return conv_endpoint<false>(f, g, n);
      if (shape_is_concave(sf) && shape_is_concave(sg)) return conv_merge<false>(f, g, n);
      return std::nullopt;
    }
    case CurveOp::MinPlusDeconv: {
      if (sg == Shape::Constant && g.size() >= f.size())
        return deconv_constant<true>(f, g[0]);
      if (shape_is_convex(sf) && shape_is_concave(sg)) return deconv_endpoint<true>(f, g);
      if (shape_is_concave(sf) && shape_is_convex(sg)) return deconv_search<true>(f, g);
      return std::nullopt;
    }
    case CurveOp::MaxPlusDeconv: {
      if (sg == Shape::Constant && g.size() >= f.size())
        return deconv_constant<false>(f, g[0]);
      if (shape_is_concave(sf) && shape_is_convex(sg)) return deconv_endpoint<false>(f, g);
      if (shape_is_convex(sf) && shape_is_concave(sg)) return deconv_search<false>(f, g);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

DiscreteCurve run_dense(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  switch (op) {
    case CurveOp::MinPlusConv:
      return min_plus_conv_dense(f, g);
    case CurveOp::MaxPlusConv:
      return max_plus_conv_dense(f, g);
    case CurveOp::MinPlusDeconv:
      return min_plus_deconv_dense(f, g);
    case CurveOp::MaxPlusDeconv:
      return max_plus_deconv_dense(f, g);
  }
  WLC_REQUIRE(false, "unknown curve operator");
  return f;  // unreachable
}

}  // namespace

Config config() {
  return Config{g_fast_paths.load(std::memory_order_relaxed),
                g_use_cache.load(std::memory_order_relaxed)};
}

void set_config(const Config& cfg) {
  g_fast_paths.store(cfg.fast_paths, std::memory_order_relaxed);
  g_use_cache.store(cfg.use_cache, std::memory_order_relaxed);
}

DispatchStats dispatch_stats() {
  return DispatchStats{g_fast_count.load(std::memory_order_relaxed),
                       g_dense_count.load(std::memory_order_relaxed)};
}

void reset_stats_for_testing() {
  g_fast_count.store(0, std::memory_order_relaxed);
  g_dense_count.store(0, std::memory_order_relaxed);
}

// ---- dense fallback kernels -------------------------------------------------
//
// Same flop count as the naive oracles, but the split loop is blocked so the
// g-tile stays in L1 while f slides past it. For a fixed output index the
// split points are still visited in ascending order across tiles, so the
// accumulation sequence — and every rounded intermediate — matches the
// oracle's exactly.

namespace {
constexpr std::size_t kTile = 256;
}

DiscreteCurve min_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, kInf);
  for (std::size_t kb = 0; kb < n; kb += kTile) {
    const std::size_t kend = std::min(kb + kTile, n);
    for (std::size_t i = kb; i < n; ++i) {
      double acc = v[i];
      const std::size_t kstop = std::min(kend, i + 1);
      for (std::size_t k = kb; k < kstop; ++k) acc = std::min(acc, f[i - k] + g[k]);
      v[i] = acc;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve max_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, -kInf);
  for (std::size_t kb = 0; kb < n; kb += kTile) {
    const std::size_t kend = std::min(kb + kTile, n);
    for (std::size_t i = kb; i < n; ++i) {
      double acc = v[i];
      const std::size_t kstop = std::min(kend, i + 1);
      for (std::size_t k = kb; k < kstop; ++k) acc = std::max(acc, f[i - k] + g[k]);
      v[i] = acc;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// The deconv windows walk f and g forward with unit stride — already the
// cache-optimal order — so the dense forms mirror the oracle loops directly.
DiscreteCurve min_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    double acc = -kInf;
    for (std::size_t k = 0; k < kmax; ++k) acc = std::max(acc, f[i + k] - g[k]);
    v[i] = acc;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve max_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    double acc = kInf;
    for (std::size_t k = 0; k < kmax; ++k) acc = std::min(acc, f[i + k] - g[k]);
    v[i] = acc;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve apply(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const Config cfg = config();
  OpCache& cache = OpCache::global();
  const bool use_cache = cfg.use_cache && cache.enabled();
  if (use_cache) {
    if (auto hit = cache.lookup(op, f, g)) {
      WLC_COUNTER_ADD("curve.cache.hits", 1);
      return std::move(*hit);
    }
    WLC_COUNTER_ADD("curve.cache.misses", 1);
  }
  std::optional<DiscreteCurve> result;
  if (cfg.fast_paths) result = try_fast(op, f, g);
  if (result) {
    g_fast_count.fetch_add(1, std::memory_order_relaxed);
    WLC_COUNTER_ADD("curve.dispatch.fast", 1);
  } else {
    g_dense_count.fetch_add(1, std::memory_order_relaxed);
    WLC_COUNTER_ADD("curve.dispatch.dense", 1);
    result = run_dense(op, f, g);
  }
  if (use_cache) {
    const std::size_t evicted = cache.insert(op, f, g, *result);
    if (evicted > 0)
      WLC_COUNTER_ADD("curve.cache.evictions", static_cast<std::int64_t>(evicted));
  }
  return std::move(*result);
}

}  // namespace wlc::curve::engine
