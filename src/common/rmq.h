// Shared sliding-window extraction structure — one build, every grid entry.
//
// Workload curves (workload/extract.h) and arrival spans
// (trace/arrival_extract.h) reduce to the same primitive: given a
// contiguous value array v[0..n-1] (demand prefix sums, or event
// timestamps), answer the exact-distance gap extrema
//
//   max_gap(s) = max_{0 <= j < n-s} ( v[j+s] - v[j] )
//   min_gap(s) = min_{0 <= j < n-s} ( v[j+s] - v[j] )
//
// for every shift s in a k-grid. The classic answer is one full O(n) scan
// per entry — the retained *_oracle kernels. SlidingExtrema is built once
// per trace in O(n + (n/B)·log(n/B)) and answers each entry by block-bound
// pruning:
//
//   * Both producers feed *non-decreasing* v (prefix sums, sorted
//     timestamps), where raw block extrema make useless bounds: min/max of
//     a monotone block are its endpoints, so a block bound carries slack of
//     whole blocks of accumulated demand — orders of magnitude above the
//     fluctuation that separates one window from another. The index
//     therefore detrends for its bounds: with the mean slope
//     μ = (v[n−1] − v[0]) / (n−1) and q[j] = v[j] − j·μ, every gap obeys
//     v[j+s] − v[j] = s·μ + (q[j+s] − q[j]) (exactly, in integer T), and q
//     is a mean-zero fluctuation whose block extrema are tight. One build
//     pass collects per-block min/max of q — the whole index; the
//     range-extremum queries a general RMQ would serve always span at most
//     two consecutive blocks here (a block's B shifted right endpoints
//     cover ≤ 2 blocks), so the O(1) range query is two sequential array
//     reads.
//   * A query with shift s gives every j-block b an O(1) bound,
//     ub(b) = s·μ + max q[bB+s .. bB+B-1+s] − min q[bB .. bB+B-1]: an
//     extremum over a superset of the block's right endpoints minus one
//     over a superset of its left endpoints can only be ≥ the block's true
//     best gap. The best-bounded block is scanned exactly first (on the RAW
//     values — the detrend exists only inside the bounds); the blocks whose
//     bound still beats that exact extremum are then scanned best-first off
//     a heap, stopping as soon as the next bound cannot beat the best
//     exactly-scanned candidate — every block behind it in heap order is
//     bounded even lower and prunes with it.
//   * For floating-point T the detrend identity holds only up to rounding,
//     so the bounds are inflated by a margin dominating the worst-case
//     accumulated error (~eps·|v|·a-few — vastly below any real span), in
//     the direction that keeps them conservative. Integer T needs no
//     margin: the identity is exact and the intermediates cannot overflow
//     (|q[j]| ≤ the value range already validated by the producers).
//
// Traces with any burst structure concentrate the extremum, so the first
// exact scan typically kills the whole heap; a trace whose fluctuations are
// flat at block granularity ties many bounds and the query degrades toward
// the oracle scan plus one O(n/B) bound-and-heap pass — never
// asymptotically worse than the oracle.
//
// Exactness, not approximation. Pruning only skips a block when its bound
// (≥ the block's true extremum) cannot beat an exactly-scanned candidate,
// so the reduction runs over exactly the value set the oracle reduces, and
// every candidate v[j+s] − v[j] is the same IEEE/integer subtraction in
// both paths. Extrema are order-independent for these sets — the inputs are
// validated finite (no NaNs) and gaps of equal value are bitwise equal (for
// doubles, a − b with a ≥ b ≥ 0 never produces −0.0 alongside +0.0) — so
// fast results are bit-identical to the oracle, which the rmq-labelled
// differential suite pins across shapes × grids × threads × budgets.
//
// The oracle needs no memory beyond the value array; the index adds ~n/32
// bytes of block extrema. When a RunPolicy byte budget admits the value
// array but not those bytes, Auto answers with the oracle scans instead —
// identical output, nothing shed.
//
// All queries on a const SlidingExtrema are thread-safe (scratch is local),
// so a thread pool may fan grid entries across workers against one shared
// index.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace wlc::common {

/// Which kernel answers a gap-extrema grid. Auto picks the shared index for
/// long traces when any byte budget admits its auxiliary memory, and the
/// plain per-entry scans below the crossover or when the budget does not.
/// Forcing a specific engine is a test/benchmark hook; every engine is
/// bit-identical on every input.
enum class GapEngine { Auto, Oracle, SharedIndex };

template <typename T>
class SlidingExtrema {
 public:
  static constexpr std::int64_t kBlockSize = 64;

  /// Builds the index over `values` (borrowed — must outlive the index).
  /// `checkpoint`, when given, is polled every few thousand blocks so a
  /// RunPolicy cancel or deadline can abort mid-build.
  explicit SlidingExtrema(std::span<const T> values,
                          const std::function<void()>* checkpoint = nullptr)
      : v_(values), n_(static_cast<std::int64_t>(values.size())) {
    blocks_ = (n_ + kBlockSize - 1) / kBlockSize;
    if (blocks_ == 0) return;
    // Mean slope of the (non-decreasing) values: integer division is fine —
    // any constant detrend preserves the gap identity, the mean merely
    // makes q's fluctuations smallest.
    if (n_ > 1) mu_ = (v_[static_cast<std::size_t>(n_ - 1)] - v_[0]) / static_cast<T>(n_ - 1);
    if constexpr (std::is_floating_point_v<T>) {
      // Conservative cover of the rounding error in q[j] = v[j] − j·μ and
      // in s·μ: a handful of ulps at the magnitude of the largest value
      // involved. Inflating every upper bound (deflating every lower one)
      // by it keeps pruning sound; the margin is ~eps·|v| and therefore
      // invisible next to any real span.
      T scale = T{0};
      for (const T x : {v_[0], v_[static_cast<std::size_t>(n_ - 1)]})
        scale = std::max(scale, std::abs(x));
      scale = std::max(scale, std::abs(mu_) * static_cast<T>(n_));
      margin_ = T{16} * std::numeric_limits<T>::epsilon() * scale;
    }
    blk_min_.resize(static_cast<std::size_t>(blocks_));
    blk_max_.resize(static_cast<std::size_t>(blocks_));
    for (std::int64_t b = 0; b < blocks_; ++b) {
      if (checkpoint && *checkpoint && (b & 0xFFF) == 0) (*checkpoint)();
      const std::int64_t lo = b * kBlockSize;
      const std::int64_t hi = std::min(lo + kBlockSize, n_);
      T mn = detrended(lo);
      T mx = mn;
      for (std::int64_t i = lo + 1; i < hi; ++i) {
        const T x = detrended(i);
        mn = std::min(mn, x);
        mx = std::max(mx, x);
      }
      blk_min_[static_cast<std::size_t>(b)] = mn;
      blk_max_[static_cast<std::size_t>(b)] = mx;
    }
  }

  std::int64_t size() const { return n_; }

  /// Auxiliary bytes an index over n values allocates (the two detrended
  /// block-extrema arrays, ~n/32 of the value array) — what a byte budget
  /// must admit on top of the value array itself before Auto picks the
  /// shared index.
  static std::int64_t index_bytes(std::int64_t n) {
    const std::int64_t blocks = (n + kBlockSize - 1) / kBlockSize;
    return 2 * blocks * static_cast<std::int64_t>(sizeof(T));
  }

  /// max_gap(shift); requires 0 <= shift < size(). `windows_scanned`, when
  /// given, accumulates the number of (j, j+shift) pairs actually examined
  /// — the pruning effectiveness signal behind extract.windows_scanned.
  T max_gap(std::int64_t shift, std::int64_t* windows_scanned = nullptr) const {
    return gap<true>(shift, windows_scanned);
  }

  /// min_gap(shift) analogue.
  T min_gap(std::int64_t shift, std::int64_t* windows_scanned = nullptr) const {
    return gap<false>(shift, windows_scanned);
  }

 private:
  /// q[j] = v[j] − j·μ — the fluctuation the bounds are computed over.
  T detrended(std::int64_t j) const {
    return v_[static_cast<std::size_t>(j)] - static_cast<T>(j) * mu_;
  }

  template <bool Max>
  T scan_block(std::int64_t b, std::int64_t shift, std::int64_t nj) const {
    const std::int64_t lo = b * kBlockSize;
    const std::int64_t m = std::min(lo + kBlockSize, nj) - lo;
    const T* a = v_.data() + lo;
    const T* s = a + shift;
    // Four independent reduction lanes break the serial max/min dependency
    // chain; folding lanes at the end reduces the same value set, and max/
    // min over a set is order-free under the no-NaN/no−0.0 precondition
    // (see the bit-identity argument above), so the result is unchanged.
    T r0 = s[0] - a[0];
    T r1 = r0, r2 = r0, r3 = r0;
    std::int64_t j = 1;
    const auto op = [](T x, T y) { return Max ? std::max(x, y) : std::min(x, y); };
    for (; j + 3 < m; j += 4) {
      r0 = op(r0, s[j] - a[j]);
      r1 = op(r1, s[j + 1] - a[j + 1]);
      r2 = op(r2, s[j + 2] - a[j + 2]);
      r3 = op(r3, s[j + 3] - a[j + 3]);
    }
    for (; j < m; ++j) r0 = op(r0, s[j] - a[j]);
    return op(op(r0, r1), op(r2, r3));
  }

  template <bool Max>
  T gap(std::int64_t shift, std::int64_t* windows_scanned) const {
    WLC_REQUIRE(shift >= 0 && shift < n_, "gap shift must satisfy 0 <= shift < size()");
    const std::int64_t nj = n_ - shift;  // valid left endpoints j in [0, nj)
    const std::int64_t jb = (nj + kBlockSize - 1) / kBlockSize;
    // Seed-then-sweep pruning: the argmax-bound block is scanned exactly
    // first, then one ascending pass re-checks every other block's bound
    // against the running best and scans only the survivors. Scan order
    // cannot change the result — the reduction runs over a value set that
    // always includes the extremum, and max/min over a set is order-free
    // (see the bit-identity argument above) — it only changes how many
    // blocks pruning discards.
    // Every gap with this shift carries the same trend term s·μ; the bounds
    // add it back to the detrended block extrema (plus the float rounding
    // margin, signed toward conservatism). A j-block's B right endpoints
    // [lo+s, lo+s+B−1] straddle at most two consecutive blocks, so the
    // shifted-side extremum is two sequential reads of the block-extrema
    // array — the always-taken two-block specialization of block_range.
    const T trend = static_cast<T>(shift) * mu_;
    const T slack = Max ? margin_ : -margin_;
    const T lift = trend + slack;
    const T* qext = (Max ? blk_max_ : blk_min_).data();
    const T* anch = (Max ? blk_min_ : blk_max_).data();
    // A full j-block starts at a multiple of B, so its shifted endpoints land
    // in blocks b + shift/B and b + (shift+B−1)/B — the SAME two offsets for
    // every full block of a query. That turns the bound pass into a
    // branch-free sequential sweep over the block-extrema arrays; only the
    // ragged last block (fewer than B valid j's) needs the general form.
    const std::int64_t full = nj / kBlockSize;
    const std::int64_t d0 = shift / kBlockSize;
    const std::int64_t d1 = (shift + kBlockSize - 1) / kBlockSize;
    auto bound = std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(jb));
    for (std::int64_t b = 0; b < full; ++b) {
      const T s0 = qext[b + d0];
      const T s1 = qext[b + d1];  // b+d1 ≤ (n−1)/B for full blocks — in range
      const T shifted = Max ? std::max(s0, s1) : std::min(s0, s1);
      bound[b] = shifted - anch[b] + lift;
    }
    for (std::int64_t b = full; b < jb; ++b) {
      const std::int64_t lo = b * kBlockSize;
      const std::int64_t hi = std::min(lo + kBlockSize, nj) - 1;
      const std::int64_t b0 = (lo + shift) / kBlockSize;
      const std::int64_t b1 = (hi + shift) / kBlockSize;
      T shifted = qext[b0];
      if (b1 != b0) shifted = Max ? std::max(shifted, qext[b1]) : std::min(shifted, qext[b1]);
      bound[b] = shifted - anch[b] + lift;
    }
    std::int64_t seed = 0;
    for (std::int64_t b = 1; b < jb; ++b)
      if (Max ? bound[b] > bound[seed] : bound[b] < bound[seed]) seed = b;
    // Seed from the best-bounded block, then best-first over the (few)
    // blocks whose bound still beats the seed's exact extremum. Scan order
    // cannot change the result — the reduction always covers the block
    // holding the true extremum, and max/min over a set is order-free (see
    // the bit-identity argument above) — it only drives how many blocks
    // pruning discards.
    T best = scan_block<Max>(seed, shift, nj);
    std::int64_t scanned = std::min(seed * kBlockSize + kBlockSize, nj) - seed * kBlockSize;
    // Ascending sweep with a live re-check: a block is scanned only while
    // its bound still beats the best exact value seen so far. Because the
    // seed is the argmax-bound block, `best` is near-final before the sweep
    // starts and almost every block fails its check; when bounds cannot
    // discriminate (tiny shifts, where a block's own fluctuation dwarfs a
    // window's spread) the sweep degrades to the sequential, prefetch-
    // friendly scan the oracle would do — never to a random-order walk.
    for (std::int64_t b = 0; b < jb; ++b) {
      if (b == seed) continue;
      // bound ≥ the block's true extremum (≤ for min): once it cannot beat
      // an exactly-scanned candidate the whole block is ruled out.
      if (Max ? bound[static_cast<std::size_t>(b)] <= best
              : bound[static_cast<std::size_t>(b)] >= best)
        continue;
      const T w = scan_block<Max>(b, shift, nj);
      best = Max ? std::max(best, w) : std::min(best, w);
      scanned += std::min(b * kBlockSize + kBlockSize, nj) - b * kBlockSize;
    }
    if (windows_scanned) *windows_scanned += scanned;
    return best;
  }

  std::span<const T> v_;
  std::int64_t n_ = 0;
  std::int64_t blocks_ = 0;
  T mu_{};      ///< mean slope (v[n−1] − v[0]) / (n − 1); detrend constant
  T margin_{};  ///< float-only rounding cover added to every bound
  std::vector<T> blk_min_, blk_max_;  ///< per-block extrema of q[j] = v[j] − j·μ
};

/// Auto resolution shared by the extraction call sites: the oracle below
/// `crossover` values (index build and bound passes cost more than they
/// prune on short traces) or when an armed byte cap cannot take the value
/// array plus the index's auxiliary bytes, the shared index otherwise.
/// `max_resident_bytes <= 0` means uncapped.
template <typename T>
GapEngine choose_gap_engine(GapEngine requested, std::int64_t values,
                            std::int64_t max_resident_bytes,
                            std::int64_t crossover = 4096) {
  if (requested != GapEngine::Auto) return requested;
  const bool index_fits =
      max_resident_bytes <= 0 ||
      values * static_cast<std::int64_t>(sizeof(T)) + SlidingExtrema<T>::index_bytes(values) <=
          max_resident_bytes;
  return values >= crossover && index_fits ? GapEngine::SharedIndex : GapEngine::Oracle;
}

}  // namespace wlc::common
