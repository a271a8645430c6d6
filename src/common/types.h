// Fundamental quantity types shared by every module.
//
// The paper expresses execution demand in processor cycles and task
// activations in event counts; both are exact integers here so that curve
// algebra over them is free of floating-point drift. Simulated wall-clock
// time is a double in seconds (the pipeline simulator orders events by
// it; nanosecond-scale resolution over minutes of simulated time is well
// within double precision).
#pragma once

#include <cstdint>

namespace wlc {

/// Processor cycles (execution demand). Signed so that differences of
/// cumulative demands are representable without casting.
using Cycles = std::int64_t;

/// Number of task activations / events.
using EventCount = std::int64_t;

/// Simulated wall-clock time in seconds.
using TimeSec = double;

/// Clock frequency in Hz (cycles per second).
using Hertz = double;

}  // namespace wlc
