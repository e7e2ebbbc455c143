// Seeded-harness tests (DESIGN.md §10, "Seeded harness"): the per-tick invariant
// checker fires on hand-built breaches and stays silent on clean ticks, the
// violation sink keeps the first 16 breaches and counts the rest, and the
// recovery rig's checkpoint layout — the byte layout torn-write damage
// offsets land in — is pinned for both the fuzz twin and the crash rig.
#include "src/emu/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/checkpoint/snapshot.h"
#include "src/emu/crash.h"
#include "src/emu/simulator.h"
#include "src/obs/event.h"
#include "src/util/units.h"

namespace sdb {
namespace {

std::unique_ptr<RecoveryRig> MakeTabletRig() {
  return std::make_unique<RecoveryRig>(TabletRigCells(), /*micro_seed=*/7, FaultPlan(),
                                       HarnessRuntimeConfig());
}

std::vector<std::string> Tags(const ViolationSink& sink) {
  std::vector<std::string> tags;
  for (const Breach& breach : sink.kept()) {
    tags.push_back(breach.tag);
  }
  return tags;
}

std::vector<uint32_t> SectionIds(const checkpoint::Snapshot& snap) {
  std::vector<uint32_t> ids;
  for (const checkpoint::Section& section : snap.sections) {
    ids.push_back(section.id);
  }
  return ids;
}

// Hand-built ticks use cycle counts well above a fresh cell's, so only the
// check under test can fire.
TEST(TickInvariantsTest, SocRangeFiresOnBreachAndStaysSilentOnCleanTick) {
  auto rig = MakeTabletRig();
  ViolationSink sink;
  TickInvariants invariants(*rig, &sink);
  invariants.CheckBattery(0, Seconds(10.0), 0.5, 100.0, Amps(0.0), false);
  EXPECT_TRUE(sink.kept().empty());
  invariants.CheckBattery(1, Seconds(20.0), 1.2, 100.0, Amps(0.0), false);
  invariants.CheckBattery(2, Seconds(20.0), std::nan(""), 100.0, Amps(0.0), false);
  EXPECT_EQ(Tags(sink), (std::vector<std::string>{"soc-range", "soc-range"}));
  EXPECT_DOUBLE_EQ(sink.kept()[0].time.value(), 20.0);
  EXPECT_EQ(sink.kept()[0].detail.rfind("battery 1 soc", 0), 0u) << sink.kept()[0].detail;
}

TEST(TickInvariantsTest, CycleMonotoneFiresOnBreachAndStaysSilentOnCleanTick) {
  auto rig = MakeTabletRig();
  ViolationSink sink;
  TickInvariants invariants(*rig, &sink);
  invariants.CheckBattery(0, Seconds(10.0), 0.5, 105.0, Amps(0.0), false);
  invariants.CheckBattery(0, Seconds(20.0), 0.5, 105.0, Amps(0.0), false);
  EXPECT_TRUE(sink.kept().empty());
  invariants.CheckBattery(0, Seconds(30.0), 0.5, 104.0, Amps(0.0), false);
  EXPECT_EQ(Tags(sink), std::vector<std::string>{"cycle-monotone"});
  // The breached count becomes the new floor.
  invariants.CheckBattery(0, Seconds(40.0), 0.5, 104.0, Amps(0.0), false);
  EXPECT_EQ(sink.kept().size(), 1u);
}

TEST(TickInvariantsTest, FaultedCurrentFiresOnBreachAndStaysSilentOnCleanTick) {
  auto rig = MakeTabletRig();
  ViolationSink sink;
  TickInvariants invariants(*rig, &sink);
  // Current during the tick that faulted the battery is allowed; the mask
  // only has to hold from the next tick on.
  invariants.CheckBattery(3, Seconds(10.0), 0.5, 100.0, Amps(2.0), true);
  EXPECT_TRUE(sink.kept().empty());
  invariants.CheckBattery(3, Seconds(20.0), 0.5, 100.0, Amps(0.0), true);
  EXPECT_TRUE(sink.kept().empty());
  invariants.CheckBattery(3, Seconds(30.0), 0.5, 100.0, Amps(1.5), false);
  EXPECT_EQ(Tags(sink), std::vector<std::string>{"faulted-current"});
  // Healthy again: current is fine.
  invariants.CheckBattery(3, Seconds(40.0), 0.5, 100.0, Amps(1.5), false);
  EXPECT_EQ(sink.kept().size(), 1u);
}

TEST(TickInvariantsTest, ChecksRunInTheirFixedOrder) {
  auto rig = MakeTabletRig();
  ViolationSink sink;
  TickInvariants invariants(*rig, &sink);
  invariants.CheckBattery(0, Seconds(10.0), 0.5, 103.0, Amps(0.0), true);
  invariants.CheckBattery(0, Seconds(20.0), -0.1, 102.0, Amps(1.0), false);
  EXPECT_EQ(Tags(sink),
            (std::vector<std::string>{"soc-range", "cycle-monotone", "faulted-current"}));
}

TEST(TickInvariantsTest, RealTicksOfAHealthyRigAreClean) {
  auto rig = MakeTabletRig();
  ViolationSink sink;
  TickInvariants invariants(*rig, &sink);
  SimConfig config;
  config.tick = Seconds(10.0);
  config.runtime_period = Minutes(10.0);
  config.on_tick = [&invariants](const MicroTick& tick, Duration now) {
    invariants.Check(tick, now);
  };
  Simulator sim(&rig->runtime, config);
  SimResult result = sim.Run(PowerTrace::Constant(Watts(6.0), Minutes(30.0)));
  EXPECT_GT(result.elapsed.value(), 0.0);
  EXPECT_TRUE(sink.kept().empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(ViolationSinkTest, KeepsTheFirstSixteenCountsTheRestAndJournalsAll) {
  obs::EventJournal journal;
  obs::JournalScope scope(&journal);
  ViolationSink sink;
  for (int i = 0; i < 20; ++i) {
    sink.Add(Seconds(1.0 * i), "tag-" + std::to_string(i), "detail");
  }
  ASSERT_EQ(sink.kept().size(), ViolationSink::kMaxKept);
  EXPECT_EQ(sink.kept().front().tag, "tag-0");
  EXPECT_EQ(sink.kept().back().tag, "tag-15");
  EXPECT_EQ(sink.dropped(), 4u);
#if SDB_JOURNAL
  EXPECT_EQ(journal.Snapshot().size(), 20u);
#endif
}

TEST(RigSnapshotLayoutTest, FuzzTwinWritesCoreSectionsThenSimLoop) {
  auto rig = MakeTabletRig();
  checkpoint::Snapshot snap = rig->SaveSnapshot(SimLoopState{});
  EXPECT_EQ(SectionIds(snap),
            (std::vector<uint32_t>{checkpoint::kSectionMicro, checkpoint::kSectionSafety,
                                   checkpoint::kSectionLink, checkpoint::kSectionRuntime,
                                   checkpoint::kSectionSimLoop}));
}

TEST(RigSnapshotLayoutTest, CrashRigAddsPredictorAndClassifierBeforeSimLoop) {
  std::unique_ptr<RecoveryRig> rig = MakeCrashRig(7, FaultPlan());
  checkpoint::Snapshot snap = rig->SaveSnapshot(SimLoopState{});
  EXPECT_EQ(SectionIds(snap),
            (std::vector<uint32_t>{checkpoint::kSectionMicro, checkpoint::kSectionSafety,
                                   checkpoint::kSectionLink, checkpoint::kSectionRuntime,
                                   checkpoint::kSectionPredictor,
                                   checkpoint::kSectionClassifier,
                                   checkpoint::kSectionSimLoop}));
}

TEST(RigSnapshotLayoutTest, RestoreIntoAFreshRigReadsEverySection) {
  std::unique_ptr<RecoveryRig> rig = MakeCrashRig(7, FaultPlan());
  SimLoopState state;
  state.t = Minutes(5.0);
  state.next_checkpoint = Minutes(10.0);
  const checkpoint::Snapshot snap = rig->SaveSnapshot(state);

  std::unique_ptr<RecoveryRig> fresh = MakeCrashRig(7, FaultPlan());
  RestoreReport resync;
  SimLoopState loop;
  ASSERT_TRUE(fresh->RestoreSnapshot(snap, &resync, &loop).ok());
  EXPECT_EQ(loop.t.value(), state.t.value());
  // The os-layer sections ride through unchanged (the core sections move
  // on with the boot-count handshake the restore completes).
  const checkpoint::Snapshot again = fresh->SaveSnapshot(loop);
  for (uint32_t id : {checkpoint::kSectionPredictor, checkpoint::kSectionClassifier,
                      checkpoint::kSectionSimLoop}) {
    ASSERT_NE(again.FindSection(id), nullptr);
    EXPECT_EQ(again.FindSection(id)->bytes, snap.FindSection(id)->bytes) << id;
  }
}

TEST(RigSnapshotLayoutTest, MissingSectionIsNamed) {
  std::unique_ptr<RecoveryRig> rig = MakeCrashRig(7, FaultPlan());
  checkpoint::Snapshot snap = rig->SaveSnapshot(SimLoopState{});
  std::erase_if(snap.sections, [](const checkpoint::Section& section) {
    return section.id == checkpoint::kSectionClassifier;
  });
  RestoreReport resync;
  SimLoopState loop;
  Status restored = MakeCrashRig(7, FaultPlan())->RestoreSnapshot(snap, &resync, &loop);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.ToString().find("missing the classifier section"), std::string::npos)
      << restored.ToString();
}

}  // namespace
}  // namespace sdb
