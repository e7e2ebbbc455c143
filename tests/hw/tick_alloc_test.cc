// Pins the hot paths' allocation contracts (DESIGN.md §12, "Tick hot path"
// and "Update hot path"): once warmed up, SdbMicrocontroller::Step and a
// healthy, direct-wired SdbRuntime::Update allocate nothing. This is its own
// test binary because it replaces the global operator new for the whole
// process.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/hw/microcontroller.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sdb {
namespace {

constexpr int kWarmupTicks = 10;
constexpr int kSteadyTicks = 1000;

SdbMicrocontroller MakeRig(double soc) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc);
  return MakeDefaultMicrocontroller(std::move(cells), 3);
}

// Allocations made by kSteadyTicks Steps after kWarmupTicks warm-up Steps.
uint64_t SteadyStateAllocations(SdbMicrocontroller& micro, Power load, Power supply) {
  for (int i = 0; i < kWarmupTicks; ++i) {
    micro.Step(load, supply, Seconds(1.0));
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteadyTicks; ++i) {
    micro.Step(load, supply, Seconds(1.0));
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(TickAllocationTest, CounterSeesAllocations) {
  // An explicit call to a replaceable allocation function cannot be elided,
  // so this proves the counting operator new is the one linked in.
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
}

TEST(TickAllocationTest, DischargeTickAllocatesNothing) {
  SdbMicrocontroller micro = MakeRig(0.8);
  ASSERT_TRUE(micro.SetDischargeRatios({0.3, 0.7}).ok());
  EXPECT_EQ(SteadyStateAllocations(micro, Watts(6.0), Watts(0.0)), 0u);
  const MicroTick& tick = micro.Step(Watts(6.0), Watts(0.0), Seconds(1.0));
  EXPECT_GT(tick.discharge.currents[0].value(), 0.0);
  EXPECT_GT(tick.discharge.currents[1].value(), 0.0);
  EXPECT_FALSE(tick.discharge.shortfall);
}

TEST(TickAllocationTest, ChargeTickAllocatesNothing) {
  // The supply covers the load and its surplus charges the pack.
  SdbMicrocontroller micro = MakeRig(0.3);
  ASSERT_TRUE(micro.SetChargeRatios({0.5, 0.5}).ok());
  EXPECT_EQ(SteadyStateAllocations(micro, Watts(2.0), Watts(20.0)), 0u);
  const MicroTick& tick = micro.Step(Watts(2.0), Watts(20.0), Seconds(1.0));
  EXPECT_TRUE(tick.charge.any_charging);
  EXPECT_LT(tick.charge.currents[0].value(), 0.0);
  EXPECT_LT(tick.charge.currents[1].value(), 0.0);
}

SdbMicrocontroller MakeRig(size_t batteries, double soc) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc);
  if (batteries == 3) {
    cells.emplace_back(MakeType2Standard(MilliAmpHours(3000.0)), soc);
  }
  return MakeDefaultMicrocontroller(std::move(cells), 3);
}

// Allocations made by kSteadyTicks Updates after kWarmupTicks warm-up
// rounds; the runtime replans every tick, and only the Updates are counted.
uint64_t SteadyStateUpdateAllocations(size_t batteries, double soc, Power load,
                                      Power supply) {
  SdbMicrocontroller micro = MakeRig(batteries, soc);
  SdbRuntime runtime(&micro);
  uint64_t allocations = 0;
  for (int i = 0; i < kWarmupTicks + kSteadyTicks; ++i) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const Status status = runtime.Update(load, supply);
    if (i >= kWarmupTicks) {
      allocations += g_allocations.load(std::memory_order_relaxed) - before;
    }
    EXPECT_TRUE(status.ok()) << status.ToString();
    micro.Step(load, supply, Seconds(1.0));
  }
  EXPECT_FALSE(runtime.degraded());
  return allocations;
}

TEST(UpdateAllocationTest, LoadOnlyUpdateAllocatesNothing) {
  EXPECT_EQ(SteadyStateUpdateAllocations(2, 0.8, Watts(6.0), Watts(0.0)), 0u);
  EXPECT_EQ(SteadyStateUpdateAllocations(3, 0.8, Watts(6.0), Watts(0.0)), 0u);
}

TEST(UpdateAllocationTest, LoadAndSupplyUpdateAllocatesNothing) {
  EXPECT_EQ(SteadyStateUpdateAllocations(2, 0.3, Watts(2.0), Watts(20.0)), 0u);
  EXPECT_EQ(SteadyStateUpdateAllocations(3, 0.3, Watts(2.0), Watts(20.0)), 0u);
}

}  // namespace
}  // namespace sdb
