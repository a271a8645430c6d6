// Shape-aware dispatch engine for the four (min,+)/(max,+) operators.
//
// Every call to DiscreteCurve::{min,max}_plus_{conv,deconv} routes through
// engine::apply, which picks the cheapest kernel that is *bit-identical* to
// the naive O(n²) oracle (`DiscreteCurve::*_naive`):
//
//   1. OpCache::global() lookup — memoized results of earlier identical
//      calls (content-fingerprint keyed; see op_cache.h).
//   2. A shape fast path when operand shapes admit one (see the table in
//      docs/architecture.md, "Curve algebra & dispatch"):
//        · constant operand        → running/suffix extremum, O(n)
//        · convex ⊗ convex (min,+) → index-tracked slope merge, O(n)
//        · concave ⊗ concave      → endpoint rule, O(n)
//        · convex/concave deconv  → endpoint rule or per-point binary
//                                   search on the unimodal split objective,
//                                   O(n) / O(n log n)
//   3. Otherwise the cache-blocked dense kernel (same O(n²) flop count as
//      the oracle, tiled over split points for locality).
//
// Bit-identity discipline: every fast path emits exactly the expression the
// oracle evaluates at the optimal split — fl(f[a] + g[b]) or
// fl(f[i+k] − g[k]) — never an algebraically equal rearrangement (running
// increment sums drift by ulps, so the slope merge never accumulates
// increments). Shape
// classification uses exact (tol = 0) comparisons on the *rounded* sample
// increments, so the optimality arguments hold for the doubles actually
// stored, and fl(·) monotonicity (a ≤ b ⇒ fl(a+c) ≤ fl(b+c)) turns
// extremum-of-rounded into rounded-of-extremum. The differential suite
// (tests/curve_engine_test.cpp, CTest label `curve`) enforces byte equality
// across shapes × sizes × operators.
#pragma once

#include <cstdint>

#include "curve/discrete_curve.h"
#include "curve/op_cache.h"

namespace wlc::curve::engine {

/// Process-wide engine switches (atomically read per call; wired to
/// `wlc_analyze --no-fast-paths` / `--curve-cache`).
struct Config {
  bool fast_paths = true;  ///< shape-aware O(n)/O(n log n) kernels
  bool use_cache = true;   ///< consult/populate OpCache::global()
};

Config config();
void set_config(const Config& cfg);

/// How many operator applications were served by a shape fast path vs the
/// dense fallback since the last reset (cache hits count as neither — the
/// kernel never ran). Mirrored to the obs counters
/// curve.dispatch.{fast,dense}.
struct DispatchStats {
  std::int64_t fast = 0;
  std::int64_t dense = 0;
};

DispatchStats dispatch_stats();
void reset_stats_for_testing();

/// Full dispatch: cache → fast path → dense. Bit-identical to the oracle.
DiscreteCurve apply(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g);

// Individual kernels, exposed for the differential tests and benchmarks.
// The dense forms visit split points in the oracle's order (ascending k per
// output index) inside a blocked loop, so accumulation order — and hence
// every rounded intermediate — matches the oracle exactly.
DiscreteCurve min_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve max_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve min_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve max_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g);

}  // namespace wlc::curve::engine
