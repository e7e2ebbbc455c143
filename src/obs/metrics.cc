#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace sdb {
namespace obs {

HistogramMetric::HistogramMetric(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)), counts_(upper_bounds_.size() + 1) {
  SDB_CHECK(!upper_bounds_.empty());
  SDB_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
}

void HistogramMetric::Observe(double v) {
  // The first bound >= v is the "le" bucket; past-the-end is the overflow
  // bucket.
  size_t bucket =
      static_cast<size_t>(std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v) -
                          upper_bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

uint64_t HistogramMetric::bucket_count(size_t i) const {
  SDB_CHECK(i < counts_.size());
  return counts_[i].load(std::memory_order_relaxed);
}

void HistogramMetric::Reset() {
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramMetric>(std::move(upper_bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.upper_bounds = histogram->upper_bounds();
    h.counts.reserve(h.upper_bounds.size() + 1);
    for (size_t i = 0; i <= h.upper_bounds.size(); ++i) {
      h.counts.push_back(histogram->bucket_count(i));
    }
    h.count = histogram->count();
    h.sum = histogram->sum();
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  MetricsSnapshot snap = Snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << JsonNumber(value);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":{\"upper_bounds\":[";
    for (size_t i = 0; i < h.upper_bounds.size(); ++i) {
      os << (i == 0 ? "" : ",") << JsonNumber(h.upper_bounds[i]);
    }
    os << "],\"counts\":[";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      os << (i == 0 ? "" : ",") << h.counts[i];
    }
    os << "],\"count\":" << h.count << ",\"sum\":" << JsonNumber(h.sum) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace obs
}  // namespace sdb
