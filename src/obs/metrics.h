// Process-wide metrics registry: monotonic counters, gauges and fixed-bucket
// histograms with thread-local sharding and an aggregate-on-read snapshot.
//
// Design goals, in order:
//
//  1. Lock-cheap hot path. Counter::add / Histogram::observe touch only a
//     per-(thread, instrument) cell of relaxed atomics; the registry mutex is
//     taken on structural events only (first touch of an instrument by a
//     thread, thread exit, snapshot). A thread pool hammering one counter
//     from eight workers never contends on a shared cache line.
//  2. Nothing is lost. Cells of exiting threads are folded into a per-
//     instrument retired accumulator under the registry mutex, so spans of
//     life shorter than the process (ThreadPool workers) still count.
//  3. Aggregate-on-read. Instruments carry no aggregation logic; snapshot()
//     walks live cells + retired totals under the mutex and returns a plain
//     value object that serializes to JSON or a human table.
//
// Instruments are identified by name and created on first use; handles are
// cheap copyable pointers, so the WLC_COUNTER_ADD family in obs.h can cache
// one per call site in a function-local static. The registry itself is a
// leaked singleton: worker threads may outlive main()'s locals and must be
// able to retire their cells at any point of shutdown.
//
// Gauges are *not* sharded: a gauge models one shared level (queue depth),
// where per-thread cells would be meaningless; value and high-watermark are
// single relaxed atomics.
//
// Compile-time removal: this header stays macro-free — the WLC_OBS_DISABLE
// switch lives in obs.h and only empties the instrumentation macros. The
// registry API keeps existing in a disabled build (snapshots are simply
// empty), so exporters need no conditional code.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wlc::obs {

namespace detail {
struct CounterImpl;
struct GaugeImpl;
struct HistogramImpl;
struct RegistryImpl;
}  // namespace detail

/// Monotonic counter handle. add() is wait-free after the first touch per
/// thread (one relaxed fetch_add on a thread-private cell).
class Counter {
 public:
  void add(std::int64_t delta);
  void increment() { add(1); }
  /// Aggregate over live thread cells + retired threads. Takes the registry
  /// mutex; exact once all writer threads are joined.
  std::int64_t total() const;

 private:
  friend class Registry;
  explicit Counter(detail::CounterImpl* impl) : impl_(impl) {}
  detail::CounterImpl* impl_;
};

/// Shared-level gauge (queue depth, live workers): one value, one
/// high-watermark, both plain relaxed atomics.
class Gauge {
 public:
  void add(std::int64_t delta);
  void set(std::int64_t value);
  std::int64_t value() const;
  std::int64_t max() const;

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeImpl* impl) : impl_(impl) {}
  detail::GaugeImpl* impl_;
};

/// Fixed-bucket histogram of integer samples (typically microseconds).
/// Bucket i counts samples <= bounds[i]; one overflow bucket past the last
/// bound. Sharded like Counter.
class Histogram {
 public:
  void observe(std::int64_t value);

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramImpl* impl) : impl_(impl) {}
  detail::HistogramImpl* impl_;
};

/// Point-in-time aggregate of every registered instrument, name-sorted.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::int64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  struct HistogramRow {
    std::string name;
    std::vector<std::int64_t> bounds;  ///< ascending upper bounds
    std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (last = overflow)
    std::int64_t count = 0;  ///< Σ counts, by construction
    std::int64_t sum = 0;
    std::int64_t min = 0;  ///< 0 when count == 0
    std::int64_t max = 0;  ///< 0 when count == 0
    /// Exemplar: the slowest bucket any sample has landed in so far, and the
    /// trace span id (obs::current_span_id) active at the last such sample.
    /// Links a latency outlier straight to its Chrome-trace span. -1 / 0
    /// when no sample (or no span) has been seen.
    std::int64_t exemplar_bucket = -1;
    std::uint64_t exemplar_span = 0;

    /// Interpolated quantile estimate, q in [0, 1]. Finds the bucket where
    /// the cumulative count crosses q*count and interpolates linearly inside
    /// it; the first bucket's lower edge is 0, the overflow bucket's upper
    /// edge is the observed max. The result is clamped to [min, max], so
    /// quantile(0) == min and quantile(1) == max exactly. Returns 0 when the
    /// histogram is empty.
    double quantile(double q) const;
  };

  /// Version of the JSON document layout; bumped on incompatible changes so
  /// decoders (report/stats) can reject rather than misread.
  static constexpr int kSchemaVersion = 1;

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// One JSON object: {"schema_version": N, "counters": {...}, "gauges":
  /// {...}, "histograms": {...}} — stable key order (name-sorted),
  /// parseable by json.tool.
  std::string to_json() const;

  /// Human-readable aligned table (what `wlc_analyze report` prints).
  void print(std::ostream& os) const;
};

/// Name → instrument directory. Instruments are created on first lookup and
/// live for the process; handles stay valid forever.
class Registry {
 public:
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` must be ascending; it is fixed by the first registration of
  /// `name` (later lookups ignore the argument).
  Histogram histogram(std::string_view name, std::span<const std::int64_t> bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument (cells, retired totals, gauges). Test-only:
  /// callers must ensure no instrumentation runs concurrently.
  void reset_for_testing();

 private:
  friend Registry& registry();
  Registry();
  detail::RegistryImpl* impl_;  // leaked: worker threads retire cells at exit
};

/// The process-wide registry.
Registry& registry();

/// Default bucket bounds for latency histograms, in microseconds
/// (1us .. 1s, roughly logarithmic). Shared by WLC_HISTOGRAM_OBSERVE.
std::span<const std::int64_t> default_latency_bounds_us();

}  // namespace wlc::obs
