// Fingerprint-keyed memo cache for (min,+)/(max,+) curve operations.
//
// The sizing sweeps in rtc::sizing / rtc::mpa and the GPC chains re-convolve
// the same α/β/γ operands for every candidate frequency or chain stage; the
// dense kernels are O(n²), so recomputation dominates. OpCache memoizes the
// four binary operators keyed by (op tag, operand fingerprints), where a
// fingerprint is a 128-bit byte-hash of the sample vector plus dt and size —
// curves are value types with no identity, so content hashing is the only
// sound key. A hit returns a copy of the stored result, which is
// bit-identical to recomputation (the engine only inserts kernel outputs),
// so caching is invisible to analysis results by construction.
//
// Replacement is LRU by resident bytes. Capacity 0 disables the cache
// entirely (lookups miss, inserts drop). The global() instance is what the
// engine consults; its capacity is wired to `wlc_analyze --curve-cache` and
// clamped by RunPolicy's max_resident_bytes budget (cache residency is
// accounted memory like any other).
//
// Thread safety: all methods are mutex-serialized; the cache is shared
// process-wide (thread pools in mpeg::analyze_clips may hit it
// concurrently). Collisions: a 2×64-bit independent-seed fingerprint makes
// accidental collision probability ~2⁻¹²⁸ per pair; there is no bucket
// chaining on full key bytes beyond that by design.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "curve/discrete_curve.h"

namespace wlc::curve {

/// Tag naming one of the four binary curve operators (the cache key must
/// distinguish min_plus_conv(f,g) from max_plus_conv(f,g) on equal operands).
enum class CurveOp : std::uint8_t {
  MinPlusConv = 0,
  MinPlusDeconv = 1,
  MaxPlusConv = 2,
  MaxPlusDeconv = 3,
};

class OpCache {
 public:
  static constexpr std::size_t kDefaultCapacityBytes = 16u << 20;  // 16 MiB

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t inserts = 0;
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;
    std::size_t capacity_bytes = 0;
  };

  explicit OpCache(std::size_t capacity_bytes = kDefaultCapacityBytes);

  /// Resizing below the resident set evicts LRU entries; 0 disables.
  void set_capacity_bytes(std::size_t capacity_bytes);
  std::size_t capacity_bytes() const;
  bool enabled() const { return capacity_bytes() > 0; }

  /// Returns a copy of the memoized result, refreshing its LRU position.
  std::optional<DiscreteCurve> lookup(CurveOp op, const DiscreteCurve& f,
                                      const DiscreteCurve& g);
  /// Stores `result` for (op, f, g); entries larger than capacity are
  /// dropped. Returns the number of LRU entries evicted to make room.
  std::size_t insert(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g,
                     const DiscreteCurve& result);

  Stats stats() const;
  /// Drops all entries and zeroes the counters (capacity unchanged).
  void clear();

  /// Process-wide instance used by the dispatch engine.
  static OpCache& global();

 private:
  struct Key {
    std::uint64_t fp_f_lo, fp_f_hi, fp_g_lo, fp_g_hi;
    std::uint8_t op;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    std::vector<double> values;
    double dt;
    std::size_t bytes;
  };

  static Key make_key(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g);
  std::size_t evict_to_fit_locked(std::size_t needed);

  mutable std::mutex mu_;
  std::size_t capacity_bytes_;
  std::size_t resident_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0, inserts_ = 0;
};

}  // namespace wlc::curve
