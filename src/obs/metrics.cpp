#include "obs/metrics.h"

#include "common/json.h"
#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <sstream>

namespace wlc::obs {

namespace {

constexpr std::int64_t kMinInit = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxInit = std::numeric_limits<std::int64_t>::min();

/// CAS-maximum on a relaxed atomic.
void bump_max(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void bump_min(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace detail {

struct ThreadState;

/// One thread's private cell of a counter. Owner writes relaxed; snapshot
/// reads relaxed under the registry mutex (structure cannot change under it).
struct CounterCell {
  std::atomic<std::int64_t> value{0};
};

struct CounterImpl {
  std::string name;
  std::size_t id = 0;
  // Guarded by the registry mutex (structure); cell values are atomic.
  std::vector<std::pair<ThreadState*, std::unique_ptr<CounterCell>>> cells;
  std::int64_t retired = 0;  ///< folded cells of exited threads
};

struct GaugeImpl {
  std::string name;
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> max{0};
};

/// One thread's private shard of a histogram.
struct HistCell {
  explicit HistCell(std::size_t n_buckets) : buckets(n_buckets) {}
  std::vector<std::atomic<std::int64_t>> buckets;  // fixed size: bounds + overflow
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{kMinInit};
  std::atomic<std::int64_t> max{kMaxInit};
};

struct HistogramImpl {
  std::string name;
  std::size_t id = 0;
  std::vector<std::int64_t> bounds;
  // Exemplar slot: the slowest bucket observed so far and the span id active
  // at the last sample that landed there. Process-wide (not sharded): an
  // exemplar is a pointer to one interesting event, not an aggregate, so a
  // benign last-writer-wins race between threads is acceptable.
  std::atomic<std::int64_t> exemplar_bucket{-1};
  std::atomic<std::uint64_t> exemplar_span{0};
  std::vector<std::pair<ThreadState*, std::unique_ptr<HistCell>>> cells;
  // Folded shards of exited threads:
  std::vector<std::int64_t> retired_buckets;
  std::int64_t retired_sum = 0;
  std::int64_t retired_min = kMinInit;
  std::int64_t retired_max = kMaxInit;
};

struct RegistryImpl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<CounterImpl>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<GaugeImpl>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<HistogramImpl>, std::less<>> histograms;
  std::size_t next_counter_id = 0;
  std::size_t next_histogram_id = 0;
};

RegistryImpl& impl() {
  // Deliberately leaked: detached/worker threads retire their cells from
  // thread_local destructors, which may run after main()'s statics died.
  static RegistryImpl* g = new RegistryImpl;
  return *g;
}

/// Per-thread directory of this thread's cells, indexed by instrument id.
/// Only the owner thread reads/writes the vectors; the cells they point to
/// are also registered with the instrument for snapshotting.
struct ThreadState {
  std::vector<std::atomic<std::int64_t>*> counter_cells;
  std::vector<HistCell*> hist_cells;
  std::vector<CounterImpl*> attached_counters;
  std::vector<HistogramImpl*> attached_histograms;

  ~ThreadState() {
    RegistryImpl& reg = impl();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (CounterImpl* c : attached_counters) {
      auto it = std::find_if(c->cells.begin(), c->cells.end(),
                             [this](const auto& p) { return p.first == this; });
      if (it == c->cells.end()) continue;
      c->retired += it->second->value.load(std::memory_order_relaxed);
      c->cells.erase(it);
    }
    for (HistogramImpl* h : attached_histograms) {
      auto it = std::find_if(h->cells.begin(), h->cells.end(),
                             [this](const auto& p) { return p.first == this; });
      if (it == h->cells.end()) continue;
      const HistCell& cell = *it->second;
      if (h->retired_buckets.empty()) h->retired_buckets.assign(cell.buckets.size(), 0);
      for (std::size_t i = 0; i < cell.buckets.size(); ++i)
        h->retired_buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
      h->retired_sum += cell.sum.load(std::memory_order_relaxed);
      h->retired_min = std::min(h->retired_min, cell.min.load(std::memory_order_relaxed));
      h->retired_max = std::max(h->retired_max, cell.max.load(std::memory_order_relaxed));
      h->cells.erase(it);
    }
  }
};

ThreadState& tstate() {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

using detail::CounterCell;
using detail::HistCell;
using detail::ThreadState;

void Counter::add(std::int64_t delta) {
  ThreadState& ts = detail::tstate();
  if (ts.counter_cells.size() <= impl_->id || ts.counter_cells[impl_->id] == nullptr) {
    // Slow path: first touch of this counter by this thread.
    detail::RegistryImpl& reg = detail::impl();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (ts.counter_cells.size() <= impl_->id) ts.counter_cells.resize(impl_->id + 1, nullptr);
    auto cell = std::make_unique<CounterCell>();
    ts.counter_cells[impl_->id] = &cell->value;
    ts.attached_counters.push_back(impl_);
    impl_->cells.emplace_back(&ts, std::move(cell));
  }
  ts.counter_cells[impl_->id]->fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t Counter::total() const {
  detail::RegistryImpl& reg = detail::impl();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::int64_t sum = impl_->retired;
  for (const auto& [owner, cell] : impl_->cells)
    sum += cell->value.load(std::memory_order_relaxed);
  return sum;
}

void Gauge::add(std::int64_t delta) {
  const std::int64_t now = impl_->value.fetch_add(delta, std::memory_order_relaxed) + delta;
  bump_max(impl_->max, now);
}

void Gauge::set(std::int64_t value) {
  impl_->value.store(value, std::memory_order_relaxed);
  bump_max(impl_->max, value);
}

std::int64_t Gauge::value() const { return impl_->value.load(std::memory_order_relaxed); }
std::int64_t Gauge::max() const { return impl_->max.load(std::memory_order_relaxed); }

void Histogram::observe(std::int64_t value) {
  ThreadState& ts = detail::tstate();
  if (ts.hist_cells.size() <= impl_->id || ts.hist_cells[impl_->id] == nullptr) {
    detail::RegistryImpl& reg = detail::impl();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (ts.hist_cells.size() <= impl_->id) ts.hist_cells.resize(impl_->id + 1, nullptr);
    auto cell = std::make_unique<HistCell>(impl_->bounds.size() + 1);
    ts.hist_cells[impl_->id] = cell.get();
    ts.attached_histograms.push_back(impl_);
    impl_->cells.emplace_back(&ts, std::move(cell));
  }
  HistCell& cell = *ts.hist_cells[impl_->id];
  const auto it = std::lower_bound(impl_->bounds.begin(), impl_->bounds.end(), value);
  const auto bucket = static_cast<std::size_t>(it - impl_->bounds.begin());
  // The bucket is bumped last, with release: a snapshot derives the sample
  // count from the buckets (acquire), so every sample it counts already has
  // its extrema recorded and [min, max] is never empty when count > 0.
  cell.sum.fetch_add(value, std::memory_order_relaxed);
  bump_min(cell.min, value);
  bump_max(cell.max, value);
  cell.buckets[bucket].fetch_add(1, std::memory_order_release);
  // Exemplar: keep the span id of the last sample in the slowest bucket seen
  // so far. >= (not >) so repeated samples in the top bucket refresh the id.
  const auto b = static_cast<std::int64_t>(bucket);
  if (b >= impl_->exemplar_bucket.load(std::memory_order_relaxed)) {
    impl_->exemplar_bucket.store(b, std::memory_order_relaxed);
    impl_->exemplar_span.store(current_span_id(), std::memory_order_relaxed);
  }
}

Registry::Registry() : impl_(&detail::impl()) {}

Registry& registry() {
  static Registry* g = new Registry;
  return *g;
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    auto c = std::make_unique<detail::CounterImpl>();
    c->name = std::string(name);
    c->id = impl_->next_counter_id++;
    it = impl_->counters.emplace(c->name, std::move(c)).first;
  }
  return Counter(it->second.get());
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    auto g = std::make_unique<detail::GaugeImpl>();
    g->name = std::string(name);
    it = impl_->gauges.emplace(g->name, std::move(g)).first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::histogram(std::string_view name, std::span<const std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    auto h = std::make_unique<detail::HistogramImpl>();
    h->name = std::string(name);
    h->id = impl_->next_histogram_id++;
    h->bounds.assign(bounds.begin(), bounds.end());
    it = impl_->histograms.emplace(h->name, std::move(h)).first;
  }
  return Histogram(it->second.get());
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [name, c] : impl_->counters) {
    std::int64_t sum = c->retired;
    for (const auto& [owner, cell] : c->cells) sum += cell->value.load(std::memory_order_relaxed);
    snap.counters.push_back({name, sum});
  }
  for (const auto& [name, g] : impl_->gauges)
    snap.gauges.push_back({name, g->value.load(std::memory_order_relaxed),
                           g->max.load(std::memory_order_relaxed)});
  for (const auto& [name, h] : impl_->histograms) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.bounds = h->bounds;
    row.counts.assign(h->bounds.size() + 1, 0);
    if (!h->retired_buckets.empty())
      for (std::size_t i = 0; i < row.counts.size(); ++i) row.counts[i] = h->retired_buckets[i];
    std::int64_t mn = h->retired_min;
    std::int64_t mx = h->retired_max;
    row.sum = h->retired_sum;
    for (const auto& [owner, cell] : h->cells) {
      for (std::size_t i = 0; i < row.counts.size(); ++i)
        row.counts[i] += cell->buckets[i].load(std::memory_order_acquire);
      row.sum += cell->sum.load(std::memory_order_relaxed);
      mn = std::min(mn, cell->min.load(std::memory_order_relaxed));
      mx = std::max(mx, cell->max.load(std::memory_order_relaxed));
    }
    // Derived, not read: count == Σ counts holds in every snapshot, however
    // the bucket loads interleave with concurrent observe() calls.
    row.count = std::accumulate(row.counts.begin(), row.counts.end(), std::int64_t{0});
    row.min = row.count > 0 ? mn : 0;
    row.max = row.count > 0 ? mx : 0;
    row.exemplar_bucket = h->exemplar_bucket.load(std::memory_order_relaxed);
    row.exemplar_span = h->exemplar_span.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void Registry::reset_for_testing() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) {
    c->retired = 0;
    for (auto& [owner, cell] : c->cells) cell->value.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : impl_->gauges) {
    g->value.store(0, std::memory_order_relaxed);
    g->max.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : impl_->histograms) {
    h->retired_buckets.clear();
    h->retired_sum = 0;
    h->retired_min = kMinInit;
    h->retired_max = kMaxInit;
    h->exemplar_bucket.store(-1, std::memory_order_relaxed);
    h->exemplar_span.store(0, std::memory_order_relaxed);
    for (auto& [owner, cell] : h->cells) {
      for (auto& b : cell->buckets) b.store(0, std::memory_order_relaxed);
      cell->sum.store(0, std::memory_order_relaxed);
      cell->min.store(kMinInit, std::memory_order_relaxed);
      cell->max.store(kMaxInit, std::memory_order_relaxed);
    }
  }
}

std::span<const std::int64_t> default_latency_bounds_us() {
  static const std::int64_t bounds[] = {1,    2,    5,     10,    25,    50,     100,
                                        250,  500,  1000,  2500,  5000,  10000,  25000,
                                        50000, 100000, 250000, 1000000};
  return bounds;
}

namespace {

void json_int_array(std::ostringstream& os, const std::vector<std::int64_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

/// Shortest round-trippable decimal for a double ("%.17g" is exact but ugly;
/// quantiles are estimates, so 10 significant digits is plenty and stable).
std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

double MetricsSnapshot::HistogramRow::quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the target sample along the sorted-sample axis.
  const double target = q * static_cast<double>(count);
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::int64_t c = counts[i];
    if (c == 0) continue;
    const std::int64_t prev = cum;
    cum += c;
    if (static_cast<double>(cum) < target) continue;
    // The rank lands in bucket i. Bucket i spans (bounds[i-1], bounds[i]];
    // the first bucket starts at 0 and the overflow bucket ends at the
    // observed max — interpolate linearly inside that span.
    const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double upper = i < bounds.size() ? static_cast<double>(bounds[i])
                                           : static_cast<double>(max);
    const double frac = static_cast<double>(target - static_cast<double>(prev)) /
                        static_cast<double>(c);
    const double est = lower + (upper - lower) * frac;
    // Clamp with the exact observed extrema so quantile(0) == min and
    // quantile(1) == max regardless of bucket edges.
    return std::clamp(est, static_cast<double>(min), static_cast<double>(max));
  }
  return static_cast<double>(max);
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema_version\": " << kSchemaVersion << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i)
    os << (i ? "," : "") << "\n    \"" << common::json_escape(counters[i].name)
       << "\": " << counters[i].value;
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i)
    os << (i ? "," : "") << "\n    \"" << common::json_escape(gauges[i].name) << "\": {\"value\": "
       << gauges[i].value << ", \"max\": " << gauges[i].max << "}";
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramRow& h = histograms[i];
    os << (i ? "," : "") << "\n    \"" << common::json_escape(h.name) << "\": {\"bounds\": ";
    json_int_array(os, h.bounds);
    os << ", \"counts\": ";
    json_int_array(os, h.counts);
    os << ", \"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
       << ", \"max\": " << h.max;
    if (h.count > 0)
      os << ", \"p50\": " << json_double(h.quantile(0.50)) << ", \"p90\": "
         << json_double(h.quantile(0.90)) << ", \"p99\": " << json_double(h.quantile(0.99));
    if (h.exemplar_bucket >= 0)
      os << ", \"exemplar\": {\"bucket\": " << h.exemplar_bucket << ", \"span_id\": "
         << h.exemplar_span << "}";
    os << "}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void MetricsSnapshot::print(std::ostream& os) const {
  std::size_t width = 0;
  for (const auto& r : counters) width = std::max(width, r.name.size());
  for (const auto& r : gauges) width = std::max(width, r.name.size());
  for (const auto& r : histograms) width = std::max(width, r.name.size());
  const auto pad = [&](const std::string& name) {
    return name + std::string(width + 2 - name.size(), ' ');
  };
  os << "counters:\n";
  for (const auto& r : counters) os << "  " << pad(r.name) << r.value << "\n";
  os << "gauges:\n";
  for (const auto& r : gauges)
    os << "  " << pad(r.name) << r.value << " (max " << r.max << ")\n";
  os << "histograms:\n";
  for (const auto& r : histograms) {
    os << "  " << pad(r.name) << "count " << r.count << ", sum " << r.sum;
    if (r.count > 0)
      os << ", mean " << (r.sum / r.count) << ", min " << r.min << ", p50 "
         << json_double(r.quantile(0.50)) << ", p90 " << json_double(r.quantile(0.90))
         << ", p99 " << json_double(r.quantile(0.99)) << ", max " << r.max;
    os << "\n";
  }
}

}  // namespace wlc::obs
