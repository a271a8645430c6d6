// Extraction of empirical arrival curves from timestamp traces via the
// span-inversion method.
//
// Instead of sweeping windows of every length Δ (quadratic in time
// resolution), we invert the problem: for each event count k compute
//
//   minspan(k) = min_i ( t[i+k-1] - t[i] )   — tightest k events ever get,
//   maxspan(k) = max_i ( t[i+k-1] - t[i] )   — loosest k consecutive events,
//
// each O(n) per k. Then, for closed windows,
//
//   ᾱᵘ(Δ) = max{ k : minspan(k) <= Δ },
//   ᾱˡ(Δ) = max{ k : maxspan(k+1) <= Δ }   (a window of length Δ always
//            contains >= k events iff every k+1 consecutive events span <= Δ,
//            windows restricted to the observation interval).
//
// Computed on a KGrid of k values; between grid points the resulting step
// curves take the conservative side (see arrival_curve.h). For the upper
// curve the full trace length is always appended to the grid so the top
// step is sound.
//
// Engines. Both span families are gap extrema over the timestamp array at
// shift k−1, so they share common::SlidingExtrema with the workload
// extractor: one block-pruned index per spans() call answers the whole
// grid, with the per-k scans retained as the minspans_oracle /
// maxspans_oracle kernels and as the budget-bounded fallback. Every engine
// is bit-identical to the oracle — the candidates are the same IEEE
// subtractions, the reductions are order-independent (validated-ordered
// inputs, no NaNs) — pinned by the rmq-labelled differential suite. The
// trailing GapEngine parameter is a test/benchmark hook; leave it Auto.
//
// Parallel engine. Each grid entry is independent given the shared array
// (and index), so the overloads taking a common::ThreadPool partition the
// k-grid across workers; results land in grid-indexed slots and every
// per-entry reduction runs single-threaded in ascending window order, so
// parallel output is bit-identical to the pool-less functions.
//
// Run policy. Every function takes an optional trailing
// runtime::RunPolicy*; when armed, the scans poll the cancel token /
// deadline before each grid entry and every few thousand values inside an
// index build (same cadence serial and pooled, so a trip
// aborts within one bounded chunk either way). Arrival grids are typically
// caller-sized, so no budget axis sheds work here — callers wanting a grid
// budget coarsen the k-grid with runtime::apply_grid_budget first — but an
// armed resident-byte cap steers Auto away from the index when its
// auxiliary memory would not fit (oracle fallback, identical output).
#pragma once

#include <span>

#include "common/rmq.h"
#include "common/thread_pool.h"
#include "runtime/runtime.h"
#include "trace/arrival_curve.h"
#include "trace/traces.h"

namespace wlc::trace {

/// minspan(k) for each k in `ks` (each k must satisfy 1 <= k <= trace size).
std::vector<TimeSec> minspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              const runtime::RunPolicy* policy = nullptr,
                              common::GapEngine engine = common::GapEngine::Auto);
/// maxspan(k) for each k in `ks`.
std::vector<TimeSec> maxspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              const runtime::RunPolicy* policy = nullptr,
                              common::GapEngine engine = common::GapEngine::Auto);

/// Parallel span computations: k-grid partitioned across `pool`,
/// bit-identical to the serial overloads.
std::vector<TimeSec> minspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              common::ThreadPool& pool,
                              const runtime::RunPolicy* policy = nullptr,
                              common::GapEngine engine = common::GapEngine::Auto);
std::vector<TimeSec> maxspans(const TimestampTrace& ts, std::span<const std::int64_t> ks,
                              common::ThreadPool& pool,
                              const runtime::RunPolicy* policy = nullptr,
                              common::GapEngine engine = common::GapEngine::Auto);

/// The retained O(n·|grid|) per-k reference scans, regardless of what Auto
/// would pick — the differential anchors for the fast engines.
std::vector<TimeSec> minspans_oracle(const TimestampTrace& ts,
                                     std::span<const std::int64_t> ks,
                                     const runtime::RunPolicy* policy = nullptr);
std::vector<TimeSec> maxspans_oracle(const TimestampTrace& ts,
                                     std::span<const std::int64_t> ks,
                                     const runtime::RunPolicy* policy = nullptr);

/// Upper arrival curve of the trace on the given k-grid (trace length is
/// appended automatically). Requires a non-empty, time-ordered trace.
EmpiricalArrivalCurve extract_upper_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            const runtime::RunPolicy* policy = nullptr,
                                            common::GapEngine engine = common::GapEngine::Auto);

/// Lower arrival curve of the trace on the given k-grid.
EmpiricalArrivalCurve extract_lower_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            const runtime::RunPolicy* policy = nullptr,
                                            common::GapEngine engine = common::GapEngine::Auto);

/// Parallel arrival-curve extraction: the span scans fan across `pool`, the
/// step-merge stays serial. Bit-identical to the serial overloads.
EmpiricalArrivalCurve extract_upper_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            common::ThreadPool& pool,
                                            const runtime::RunPolicy* policy = nullptr,
                                            common::GapEngine engine = common::GapEngine::Auto);
EmpiricalArrivalCurve extract_lower_arrival(const TimestampTrace& ts,
                                            std::span<const std::int64_t> ks,
                                            common::ThreadPool& pool,
                                            const runtime::RunPolicy* policy = nullptr,
                                            common::GapEngine engine = common::GapEngine::Auto);

/// Reference implementation — direct window sweep at one Δ; O(n). Used by
/// tests to validate the span-inversion extractors.
EventCount max_events_in_window(const TimestampTrace& ts, TimeSec delta);
EventCount min_events_in_window(const TimestampTrace& ts, TimeSec delta);

}  // namespace wlc::trace
