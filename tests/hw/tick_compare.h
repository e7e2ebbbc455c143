// Bit-for-bit comparison of circuit ticks for the hw tests: two ticks are
// the same when every double has the same bit pattern (so +0.0 and -0.0
// differ) and every per-battery vector has the same size.
#ifndef TESTS_HW_TICK_COMPARE_H_
#define TESTS_HW_TICK_COMPARE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/hw/charge_circuit.h"
#include "src/hw/discharge_circuit.h"

namespace sdb {

inline double RawValue(double x) { return x; }
template <typename Q>
double RawValue(Q q) {
  return q.value();
}

template <typename T>
void ExpectSameBits(T a, T b, const char* field) {
  EXPECT_EQ(std::bit_cast<uint64_t>(RawValue(a)), std::bit_cast<uint64_t>(RawValue(b)))
      << field << ": " << RawValue(a) << " vs " << RawValue(b);
}

template <typename T>
void ExpectSameBits(const std::vector<T>& a, const std::vector<T>& b, const char* field) {
  ASSERT_EQ(a.size(), b.size()) << field;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameBits(a[i], b[i], field);
  }
}

// Expects exactly +0.0, the value every idle or unrequested entry is given.
template <typename T>
void ExpectPositiveZero(T x, const char* field) {
  ExpectSameBits(RawValue(x), 0.0, field);
}

inline void ExpectSameTick(const DischargeTick& a, const DischargeTick& b) {
  ExpectSameBits(a.requested, b.requested, "requested");
  ExpectSameBits(a.delivered, b.delivered, "delivered");
  ExpectSameBits(a.circuit_loss, b.circuit_loss, "circuit_loss");
  ExpectSameBits(a.battery_loss, b.battery_loss, "battery_loss");
  ExpectSameBits(a.currents, b.currents, "currents");
  ExpectSameBits(a.battery_power, b.battery_power, "battery_power");
  ExpectSameBits(a.realised_shares, b.realised_shares, "realised_shares");
  EXPECT_EQ(a.shortfall, b.shortfall);
}

inline void ExpectSameTick(const ChargeTick& a, const ChargeTick& b) {
  ExpectSameBits(a.supply_offered, b.supply_offered, "supply_offered");
  ExpectSameBits(a.absorbed, b.absorbed, "absorbed");
  ExpectSameBits(a.supply_used, b.supply_used, "supply_used");
  ExpectSameBits(a.circuit_loss, b.circuit_loss, "circuit_loss");
  ExpectSameBits(a.battery_loss, b.battery_loss, "battery_loss");
  ExpectSameBits(a.currents, b.currents, "currents");
  EXPECT_EQ(a.any_charging, b.any_charging);
}

}  // namespace sdb

#endif  // TESTS_HW_TICK_COMPARE_H_
