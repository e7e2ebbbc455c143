// The process-wide metrics registry: named counters, gauges and
// fixed-bucket histograms behind lock-cheap handles.
//
// Registration (name -> handle) takes the registry mutex once; after that
// every Increment/Set/Observe is a relaxed atomic on the handle, so hot
// paths (runtime updates, sweep shards, link roundtrips) can report without
// contending. Handles are stable for the life of the process: re-registering
// a name returns the same handle, so value history survives re-registration.
//
// Naming doctrine (DESIGN.md §8): "sdb.<layer>.<noun>[_unit]", e.g.
// "sdb.runtime.link_retries", "sdb.sweep.wall_s". Counters count events,
// gauges carry accumulated or last-set doubles (suffix the unit), histograms
// bucket a distribution under fixed, registration-time bounds.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sdb {
namespace obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A double that can be set outright or accumulated (for totals like
// seconds-of-backoff that are not integer event counts).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `upper_bounds` (ascending) define the buckets at
// registration time; an implicit overflow bucket catches everything above
// the last bound. Observations are relaxed atomics, so concurrent shards
// can fill the same histogram and the totals stay exact (bucket counts are
// order-independent).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // Bucket i counts observations <= upper_bounds[i]; the final entry is the
  // overflow bucket.
  uint64_t bucket_count(size_t i) const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // upper_bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;  // One per bound, plus the overflow bucket.
  uint64_t count = 0;
  double sum = 0.0;
};

// Point-in-time copy of every registered metric, keyed by name (ordered, so
// exports are deterministic given the same registrations).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem reports through.
  static MetricsRegistry& Global();

  // Idempotent: the first call for a name creates the metric, later calls
  // return the same handle (value history included). Names are namespaced
  // per metric kind; registering "x" as both a counter and a gauge is two
  // metrics. Handles stay valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `upper_bounds` only applies on first registration; later calls return
  // the existing histogram unchanged.
  HistogramMetric* GetHistogram(const std::string& name, std::vector<double> upper_bounds);

  MetricsSnapshot Snapshot() const;

  // JSON exporter: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;

  // Zeroes every registered metric, keeping registrations (and handed-out
  // handles) intact. For tests and for bench harnesses that want a clean
  // window; production code never resets.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Escapes a string for embedding in a JSON string literal (shared by the
// metrics and trace exporters).
std::string JsonEscape(std::string_view s);

// Formats a double for JSON export: shortest round-trippable form,
// with non-finite values clamped to 0 (JSON has no NaN/inf).
std::string JsonNumber(double v);

}  // namespace obs
}  // namespace sdb

#endif  // SRC_OBS_METRICS_H_
