// Pins the hot paths' allocation contracts (DESIGN.md §12, "Tick hot path"
// and "Update hot path"): once warmed up, SdbMicrocontroller::Step and a
// direct-wired SdbRuntime::Update allocate nothing, healthy or degraded. It
// also pins that the span and journal rings take their storage on the first
// push (DESIGN.md §8), so observability that records nothing holds nothing.
// This is its own test binary because it replaces the global operator new
// for the whole process.
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
#include "src/hw/safety.h"
#include "src/obs/event.h"
#include "src/obs/trace.h"
#include "src/util/ring_buffer.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so that where a test's allocation and release inline into
// one function the compiler does not pair this malloc with the free below
// and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

// Allocations made by kSteadyTicks Updates after kWarmupTicks warm-up
// rounds of a runtime whose masks are already set; simulated time advances
// with the ticks, so a reintegration ramp keeps growing.
uint64_t DegradedUpdateAllocations(SdbRuntime& runtime, SdbMicrocontroller& micro, Power load,
                                   Power supply) {
  uint64_t allocations = 0;
  for (int i = 0; i < kWarmupTicks + kSteadyTicks; ++i) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const Status status = runtime.Update(load, supply);
    if (i >= kWarmupTicks) {
      allocations += g_allocations.load(std::memory_order_relaxed) - before;
    }
    EXPECT_TRUE(status.ok()) << status.ToString();
    micro.Step(load, supply, Seconds(1.0));
    runtime.AdvanceTime(Seconds(1.0));
  }
  return allocations;
}

// Latches an over-temperature fault on battery 0, then cools it so only the
// supervisor's latch keeps it out.
void TripBatteryZero(SdbMicrocontroller& micro, const SafetySupervisor& safety) {
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(70.0));
  micro.Step(Watts(2.0), Watts(0.0), Seconds(1.0));
  ASSERT_TRUE(safety.IsFaulted(0));
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(25.0));
}

std::vector<SafetyLimits> Limits(const SdbMicrocontroller& micro) {
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  return limits;
}

TEST(UpdateAllocationTest, SafetyQuarantinedUpdateAllocatesNothing) {
  SdbMicrocontroller micro = MakeRig(3, 0.3);
  SafetySupervisor safety(Limits(micro));
  micro.AttachSafety(&safety);
  SdbRuntime runtime(&micro);
  TripBatteryZero(micro, safety);
  EXPECT_EQ(DegradedUpdateAllocations(runtime, micro, Watts(2.0), Watts(20.0)), 0u);
  EXPECT_TRUE(runtime.degraded());
  EXPECT_TRUE(runtime.excluded_batteries()[0]);
  EXPECT_DOUBLE_EQ(runtime.last_discharge_ratios()[0], 0.0);
  EXPECT_DOUBLE_EQ(runtime.last_charge_ratios()[0], 0.0);
}

TEST(UpdateAllocationTest, RampingUpdateAllocatesNothing) {
  SdbMicrocontroller micro = MakeRig(3, 0.3);
  SafetySupervisor safety(Limits(micro));
  micro.AttachSafety(&safety);
  RuntimeConfig config;
  config.reintegration_horizon = Seconds(1e5);  // Still ramping after the run.
  SdbRuntime runtime(&micro, config);
  TripBatteryZero(micro, safety);
  ASSERT_TRUE(runtime.Update(Watts(2.0), Watts(20.0)).ok());
  ASSERT_TRUE(runtime.excluded_batteries()[0]);
  ASSERT_TRUE(safety.ClearFault(0, micro.pack().cell(0)));
  EXPECT_EQ(DegradedUpdateAllocations(runtime, micro, Watts(2.0), Watts(20.0)), 0u);
  EXPECT_FALSE(runtime.excluded_batteries()[0]);
  EXPECT_GT(runtime.reintegration_ramp()[0], 0.0);
  EXPECT_LT(runtime.reintegration_ramp()[0], 1.0);
  EXPECT_GT(runtime.last_discharge_ratios()[0], 0.0);
}

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

TEST(RingStorageAllocationTest, ConstructingARingAllocatesNothing) {
  const uint64_t before = AllocationCount();
  RingBuffer<obs::TraceEvent> spans(65536);
  obs::EventJournal journal;
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(spans.capacity(), 65536u);
  EXPECT_EQ(journal.recorded(), 0u);
}

TEST(RingStorageAllocationTest, FirstPushAllocatesTheWholeRingOnce) {
  RingBuffer<obs::TraceEvent> spans(65536);
  obs::TraceEvent span;
  span.name = "span";
  uint64_t before = AllocationCount();
  spans.Push(span);
  EXPECT_EQ(AllocationCount() - before, 1u);
  before = AllocationCount();
  for (int i = 0; i < 100; ++i) {
    spans.Push(span);
  }
  spans.Clear();
  spans.Push(span);
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(spans.size(), 1u);
}

TEST(RingStorageAllocationTest, FirstJournalEventAllocatesTheRingOnce) {
  obs::EventJournal journal;
  obs::JournalEvent event;
  event.what = "edge";  // Short enough to live inside the string object.
  const uint64_t before = AllocationCount();
  journal.Emit(event);
  journal.Emit(event);
  EXPECT_EQ(AllocationCount() - before, 1u);
  EXPECT_EQ(journal.recorded(), 2u);
}

TEST(RingStorageAllocationTest, ResizingAnUntracedTracerAllocatesNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_EQ(tracer.recorded(), 0u);  // Nothing in this binary enables tracing.
  const uint64_t before = AllocationCount();
  tracer.SetCapacity(1024);
  tracer.SetCapacity(65536);
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

}  // namespace
}  // namespace sdb
