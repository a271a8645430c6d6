// Trace-driven simulation of the paper's Fig. 5 right half: the FIFO in
// front of PE2 and PE2 itself, a work-conserving single server at a fixed
// or frequency-scaled clock. It measures the backlogs of Fig. 7.
//
// The queue only changes state at arrival and completion instants, so the
// simulator is one merge of the arrival stream with the single pending
// completion. Its tie rule: at equal timestamps every arrival is handled
// before the completion, so an item finishing exactly when others arrive is
// still counted as in service while they are queued. The event-driven oracle
// in tests/sim_oracle.h orders its events the same way, and the tests pin
// this loop to it bit for bit.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "trace/traces.h"

namespace wlc::sim {

/// Clock chosen per item from the FIFO backlog at service start: the item
/// about to be served plus everything queued behind it. A threshold policy
/// models the usual two-mode DVS governor.
using DvsPolicy = std::function<Hertz(std::int64_t backlog)>;

/// Result of one pipeline run. Energy is accounted per item as
/// demand · f^(e-1) (normalized κ = 1, e = 3; see rtc/energy.h) so constant-
/// clock and DVS runs can be compared directly.
struct PipelineStats {
  std::int64_t max_backlog = 0;   ///< items, high-water mark
  std::int64_t overflows = 0;     ///< items dropped (bounded FIFO only)
  std::int64_t completed = 0;
  TimeSec makespan = 0.0;         ///< last completion time
  TimeSec max_latency = 0.0;      ///< worst arrival-to-completion time
  double utilization = 0.0;       ///< busy / makespan
  double energy = 0.0;            ///< normalized (κ=1, cubic power law)
};

/// Plays `events` into a FIFO of `capacity` (0 = unbounded) served by a PE
/// at `frequency`; runs to drain. An arrival that finds `capacity` items
/// waiting is dropped and counted as an overflow.
PipelineStats run_fifo_pipeline(const trace::EventTrace& events, Hertz frequency,
                                std::int64_t capacity = 0);

/// Frequency-scaled variant: the PE picks its clock per item via `policy`.
PipelineStats run_dvs_pipeline(const trace::EventTrace& events, DvsPolicy policy,
                               std::int64_t capacity = 0);

}  // namespace wlc::sim
