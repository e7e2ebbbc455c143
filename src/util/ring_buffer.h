// Fixed-capacity ring buffer used for rolling windows of telemetry
// (recent power draw, recent losses) in the runtime and the predictor, and
// for the span and journal rings in src/obs.
//
// Storage is taken on the first Push, in one allocation of the whole
// capacity, so a ring that never records anything holds no memory: the
// 65,536-span trace ring costs nothing in a process that never traces.
#ifndef SRC_UTIL_RING_BUFFER_H_
#define SRC_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace sdb {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(size_t capacity) : capacity_(capacity) { SDB_CHECK(capacity > 0); }

  // Appends, evicting the oldest element when full.
  void Push(T value) {
    if (data_.size() < capacity_) {
      if (data_.size() == data_.capacity()) {
        data_.reserve(capacity_);
      }
      data_.push_back(std::move(value));
      return;
    }
    data_[oldest_] = std::move(value);
    oldest_ = (oldest_ + 1) % capacity_;
  }

  // Element i counted from the oldest retained element (0 == oldest).
  const T& At(size_t i) const {
    SDB_CHECK(i < data_.size());
    return data_[(oldest_ + i) % capacity_];
  }

  // Most recently pushed element.
  const T& Back() const {
    SDB_CHECK(!data_.empty());
    return At(data_.size() - 1);
  }

  size_t size() const { return data_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return data_.empty(); }
  bool full() const { return data_.size() == capacity_; }

  // Drops every element; the storage, once taken, is kept for reuse.
  void Clear() {
    data_.clear();
    oldest_ = 0;
  }

 private:
  size_t capacity_;
  // The retained elements; until the ring first fills, in push order.
  std::vector<T> data_;
  // Index in data_ of the oldest element (0 until the ring first fills).
  size_t oldest_ = 0;
};

// Mean of the retained elements (requires arithmetic T and non-empty buffer).
template <typename T>
double Mean(const RingBuffer<T>& buf) {
  SDB_CHECK(!buf.empty());
  double sum = 0.0;
  for (size_t i = 0; i < buf.size(); ++i) {
    sum += static_cast<double>(buf.At(i));
  }
  return sum / static_cast<double>(buf.size());
}

}  // namespace sdb

#endif  // SRC_UTIL_RING_BUFFER_H_
