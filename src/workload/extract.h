// Workload-curve extraction from demand traces (the paper's §2, "another way
// to construct the workload curves is by analysis of event traces").
//
// Given the per-activation demand sequence d[0..n-1] of a task, the exact
// trace-restricted curves are sliding-window extrema of prefix sums:
//
//   γᵘ(k) = max_j Σ_{i=j}^{j+k-1} d_i ,   γˡ(k) = min_j Σ d_i .
//
// Both are computed exactly for every k on a KGrid; the WorkloadCurve object
// interpolates conservatively between grid entries, so the result is a
// guaranteed bound for the analyzed trace at every k. As the paper notes,
// such curves certify the analyzed trace (class of traces) only — for hard
// real-time guarantees construct curves analytically (see polling.h,
// type_bounds.h).
//
// Engines. The historical hot path rescans the prefix sums once per grid
// entry — O(n·|grid|). Those per-k scans are retained verbatim as the
// *_oracle kernels below; the default path now builds one shared
// common::SlidingExtrema index over the (contiguous, SIMD-friendly) prefix
// sums and answers every grid entry from it by block-bound pruning, with the
// oracle as the budget-bounded fallback when the byte budget admits the
// prefix array but not the index's auxiliary memory.
// Every engine is bit-identical to the oracle on every input — same
// differential discipline the curve engine established — pinned by the
// rmq-labelled test suite across shapes × grids × threads × budgets. The
// trailing GapEngine parameter is a test/benchmark hook; leave it Auto.
//
// Parallel engine. Each grid entry's query/scan is independent given the
// shared prefix-sum array (and index), so the overloads taking a
// common::ThreadPool partition the k-grid across workers; results land in
// grid-indexed slots and every per-entry reduction runs in a single thread
// in ascending-j order, so parallel output is bit-identical to the serial
// path. extract_batch fans whole traces across the pool (each trace
// extracted serially inside its task — again bit-identical to individual
// serial calls).
//
// Run-policy contract. Every extractor takes an optional
// wlc::runtime::RunPolicy: checkpoints run between grid entries, every few
// thousand blocks inside an index build (and between traces in the
// batched API), so a
// cancel/deadline trip aborts within one bounded chunk; the grid-point
// budget coarsens the k-grid (OnBudget::Degrade — sound, merely less tight)
// or throws BudgetExceededError (Fail); the resident-byte budget bounds the
// prefix-sum buffer exactly as before — truncating the analyzed window
// under Degrade with the certificate scope recorded in the
// DegradationReport — and additionally steers Auto away from the index when
// its auxiliary memory would not fit (the oracle fallback, identical
// output, never an error). A null policy reproduces the historical
// unbounded behavior bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "common/rmq.h"
#include "common/thread_pool.h"
#include "runtime/runtime.h"
#include "trace/traces.h"
#include "workload/workload_curve.h"

namespace wlc::workload {

/// Side information about one extraction that the returned curve cannot
/// carry itself.
struct ExtractStats {
  /// Requested window sizes larger than the trace length. Each such k is
  /// clamped to n (the curve past n is served by block extension), which is
  /// sound but easy to misread: a caller asking for k = 10⁶ on a 10³-event
  /// trace gets a curve whose exact range ends at 10³. Non-zero means the
  /// grid did not cover the request exactly.
  std::int64_t clamped_ks = 0;
};

/// Exact γᵘ restricted to windows of `demands`, on window sizes `ks`
/// (each clamped to the trace length; the trace length is appended so the
/// curve's exact range covers whole-trace windows). Serial entry point.
/// `stats`, when given, reports grid clamping.
WorkloadCurve extract_upper(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            ExtractStats* stats = nullptr,
                            const runtime::RunPolicy* policy = nullptr,
                            runtime::DegradationReport* degradation = nullptr,
                            common::GapEngine engine = common::GapEngine::Auto);

/// Exact γˡ analogue.
WorkloadCurve extract_lower(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            ExtractStats* stats = nullptr,
                            const runtime::RunPolicy* policy = nullptr,
                            runtime::DegradationReport* degradation = nullptr,
                            common::GapEngine engine = common::GapEngine::Auto);

/// Parallel γᵘ: the k-grid is partitioned across `pool`. Bit-identical to
/// the serial overload on every input (checkpointed cancellation included —
/// both paths poll between grid entries).
WorkloadCurve extract_upper(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            common::ThreadPool& pool, ExtractStats* stats = nullptr,
                            const runtime::RunPolicy* policy = nullptr,
                            runtime::DegradationReport* degradation = nullptr,
                            common::GapEngine engine = common::GapEngine::Auto);

/// Parallel γˡ analogue.
WorkloadCurve extract_lower(const trace::DemandTrace& demands, std::span<const std::int64_t> ks,
                            common::ThreadPool& pool, ExtractStats* stats = nullptr,
                            const runtime::RunPolicy* policy = nullptr,
                            runtime::DegradationReport* degradation = nullptr,
                            common::GapEngine engine = common::GapEngine::Auto);

/// The retained O(n·|grid|) reference kernels: the plain per-k scans,
/// regardless of what Auto would pick. The rmq differential suite pins
/// every fast engine to these bit for bit; they also serve as the
/// before-side of BENCH_extraction.json.
WorkloadCurve extract_upper_oracle(const trace::DemandTrace& demands,
                                   std::span<const std::int64_t> ks,
                                   ExtractStats* stats = nullptr,
                                   const runtime::RunPolicy* policy = nullptr,
                                   runtime::DegradationReport* degradation = nullptr);
WorkloadCurve extract_lower_oracle(const trace::DemandTrace& demands,
                                   std::span<const std::int64_t> ks,
                                   ExtractStats* stats = nullptr,
                                   const runtime::RunPolicy* policy = nullptr,
                                   runtime::DegradationReport* degradation = nullptr);

/// Convenience: dense extraction of every k in [1, k_max] (k_max clamped to
/// the trace length) — exact; the dense grid is where the shared index pays
/// off most.
WorkloadCurve extract_upper_dense(const trace::DemandTrace& demands, EventCount k_max);
WorkloadCurve extract_lower_dense(const trace::DemandTrace& demands, EventCount k_max);

/// Both curves of one trace, as produced by the batched API.
struct CurveBundle {
  WorkloadCurve upper;
  WorkloadCurve lower;
  ExtractStats stats;
};

/// Batched extraction: fans `traces` across `pool`, one task per trace,
/// each extracting γᵘ and γˡ on the shared grid `ks`. out[i] matches
/// serial extract_upper/lower on traces[i] bit for bit; order preserved.
/// Under a policy, the shared grid budget is applied once up front and the
/// token/deadline is polled between traces and between grid entries;
/// per-trace degradation (byte-budget truncation) folds into `degradation`
/// in trace order.
std::vector<CurveBundle> extract_batch(const std::vector<trace::DemandTrace>& traces,
                                       std::span<const std::int64_t> ks,
                                       common::ThreadPool& pool,
                                       const runtime::RunPolicy* policy = nullptr,
                                       runtime::DegradationReport* degradation = nullptr,
                                       common::GapEngine engine = common::GapEngine::Auto);

}  // namespace wlc::workload
