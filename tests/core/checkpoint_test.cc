// Checkpoint container + A/B store + rig-codec tests (DESIGN.md §16):
// structural damage (truncation, bit flips) is rejected with
// kInvalidArgument, schema skew (older/newer version bytes, wrong config
// digest) with kFailedPrecondition — never undefined behaviour — and the
// A/B protocol always recovers the surviving slot, in both directions of
// the valid/corrupt cross matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/chem/library.h"
#include "src/core/checkpoint/rig_codec.h"
#include "src/core/checkpoint/snapshot.h"
#include "src/core/checkpoint/store.h"
#include "src/core/runtime.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/util/units.h"

namespace sdb {
namespace checkpoint {
namespace {

Snapshot MakeSnapshot() {
  Snapshot snap;
  snap.config_digest = 0xD16E57;
  snap.generation = 3;
  snap.AddSection(kSectionMicro, {1, 2, 3, 4});
  snap.AddSection(kSectionRuntime, {9, 8});
  return snap;
}

TEST(SnapshotTest, RoundTrip) {
  Snapshot snap = MakeSnapshot();
  std::vector<uint8_t> bytes = EncodeSnapshot(snap);
  StatusOr<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kFormatVersion);
  EXPECT_EQ(decoded->config_digest, snap.config_digest);
  EXPECT_EQ(decoded->generation, 3u);
  ASSERT_EQ(decoded->sections.size(), 2u);
  const Section* micro = decoded->FindSection(kSectionMicro);
  ASSERT_NE(micro, nullptr);
  EXPECT_EQ(micro->bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(decoded->FindSection(kSectionSafety), nullptr);
  EXPECT_TRUE(ValidateSchema(*decoded, snap.config_digest).ok());
}

TEST(SnapshotTest, TruncationRejectedAtEveryLength) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    StatusOr<Snapshot> decoded = DecodeSnapshot(torn);
    ASSERT_FALSE(decoded.ok()) << "length " << cut << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeSnapshot());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> flipped = bytes;
      flipped[pos] = static_cast<uint8_t>(flipped[pos] ^ (1u << bit));
      StatusOr<Snapshot> decoded = DecodeSnapshot(flipped);
      if (!decoded.ok()) {
        continue;  // Structural rejection: fine.
      }
      // A flip the CRC cannot see lives in the version bytes (outside the
      // checksummed range, by design: the version must be readable before
      // interpreting anything else). Schema validation must catch those.
      Status schema = ValidateSchema(*decoded, MakeSnapshot().config_digest);
      EXPECT_FALSE(schema.ok()) << "flip at byte " << pos << " bit " << bit
                                << " was silently accepted";
    }
  }
}

TEST(SnapshotTest, VersionSkewRejectedTyped) {
  for (uint16_t version : {static_cast<uint16_t>(kFormatVersion - 1),
                           static_cast<uint16_t>(kFormatVersion + 1),
                           static_cast<uint16_t>(0xFFFF)}) {
    Snapshot snap = MakeSnapshot();
    snap.version = version;
    std::vector<uint8_t> bytes = EncodeSnapshot(snap);
    StatusOr<Snapshot> decoded = DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << "version is schema, not structure";
    Status schema = ValidateSchema(*decoded, snap.config_digest);
    ASSERT_FALSE(schema.ok());
    EXPECT_EQ(schema.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SnapshotTest, WrongDigestRejectedTyped) {
  Snapshot snap = MakeSnapshot();
  std::vector<uint8_t> bytes = EncodeSnapshot(snap);
  StatusOr<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  Status schema = ValidateSchema(*decoded, snap.config_digest ^ 1);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.code(), StatusCode::kFailedPrecondition);
}

TEST(StoreTest, NeverWrittenIsNotFound) {
  MemorySlotDevice device;
  CheckpointStore store(&device, 1);
  StatusOr<LoadResult> loaded = store.LoadLastGood();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(StoreTest, SavesAlternateSlotsAndLoadNewest) {
  MemorySlotDevice device;
  CheckpointStore store(&device, 1);
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(1.0)).ok());
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(2.0)).ok());
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(3.0)).ok());
  StatusOr<LoadResult> loaded = store.LoadLastGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->snapshot.generation, 3u);
  EXPECT_EQ(loaded->slot, 0);  // Generations 1,3 -> A; 2 -> B.
  EXPECT_FALSE(loaded->fell_back);
  EXPECT_EQ(loaded->corrupt_slots, 0);
  EXPECT_TRUE(loaded->diagnostics[0].valid);
  EXPECT_TRUE(loaded->diagnostics[1].valid);
}

// The A-valid/B-corrupt cross matrix: whichever slot the torn write lands
// in, the load must detect it and fall back to the surviving snapshot.
TEST(StoreTest, TornWriteFallsBackToSurvivor) {
  struct Case {
    bool tear_second;  // false: tear slot A (gen 1); true: tear slot B (gen 2).
    uint64_t surviving_generation;
    int surviving_slot;
  };
  for (const Case& c : {Case{false, 2, 1}, Case{true, 1, 0}}) {
    MemorySlotDevice device;
    CheckpointStore store(&device, 1);
    if (!c.tear_second) {
      store.SetWriteMutatorOnce([](std::vector<uint8_t>& bytes) {
        bytes.resize(bytes.size() / 2);
      });
    }
    ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(1.0)).ok());
    if (c.tear_second) {
      store.SetWriteMutatorOnce([](std::vector<uint8_t>& bytes) {
        bytes[bytes.size() - 1] = static_cast<uint8_t>(bytes.back() ^ 0x40);
      });
    }
    ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(2.0)).ok());

    StatusOr<LoadResult> loaded = store.LoadLastGood();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->snapshot.generation, c.surviving_generation);
    EXPECT_EQ(loaded->slot, c.surviving_slot);
    EXPECT_TRUE(loaded->fell_back);
    EXPECT_EQ(loaded->corrupt_slots, 1);
    EXPECT_TRUE(loaded->diagnostics[c.surviving_slot].valid);
    EXPECT_FALSE(loaded->diagnostics[1 - c.surviving_slot].valid);
    EXPECT_FALSE(loaded->diagnostics[1 - c.surviving_slot].error.empty());

    // AdoptLoaded must aim the next save at the corrupt slot, never at the
    // survivor (the only good image would be the one overwritten).
    CheckpointStore reborn(&device, 1);
    reborn.AdoptLoaded(*loaded);
    ASSERT_TRUE(reborn.Save(MakeSnapshot(), Seconds(3.0)).ok());
    StatusOr<LoadResult> after = reborn.LoadLastGood();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->snapshot.generation, c.surviving_generation + 1);
    EXPECT_EQ(after->corrupt_slots, 0);
  }
}

TEST(StoreTest, BothSlotsCorruptReturnsTypedError) {
  MemorySlotDevice device;
  CheckpointStore store(&device, 1);
  store.SetWriteMutatorOnce([](std::vector<uint8_t>& bytes) { bytes.clear(); });
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(1.0)).ok());
  store.SetWriteMutatorOnce([](std::vector<uint8_t>& bytes) { bytes[0] ^= 0xFF; });
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(2.0)).ok());
  StatusOr<LoadResult> loaded = store.LoadLastGood();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A snapshot written by a different rig (digest) or format version must be
// counted corrupt at the store level and never loaded.
TEST(StoreTest, SchemaSkewSlotsNeverLoad) {
  MemorySlotDevice device;
  {
    // Fill both slots with foreign-rig snapshots so one survives the
    // same-rig save below (a fresh store always writes slot A first).
    CheckpointStore other_rig(&device, 99);
    ASSERT_TRUE(other_rig.Save(MakeSnapshot(), Seconds(1.0)).ok());
    ASSERT_TRUE(other_rig.Save(MakeSnapshot(), Seconds(2.0)).ok());
  }
  CheckpointStore store(&device, 1);
  StatusOr<LoadResult> loaded = store.LoadLastGood();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);

  // A valid same-rig save must win while the foreign slot stays rejected.
  ASSERT_TRUE(store.Save(MakeSnapshot(), Seconds(2.0)).ok());
  StatusOr<LoadResult> mixed = store.LoadLastGood();
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->corrupt_slots, 1);
  EXPECT_TRUE(mixed->fell_back);
}

// --- Rig codec round-trips --------------------------------------------------

SdbMicrocontroller MakeTestMicro(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(3000.0)), 0.7);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(3000.0)), 0.6);
  return MakeDefaultMicrocontroller(std::move(cells), seed);
}

FaultPlan SmallPlan() {
  FaultPlan plan;
  plan.seed = 5;
  FaultEvent event;
  event.kind = FaultClass::kGaugeNoise;
  event.start = Seconds(0.0);
  event.end = Seconds(500.0);
  event.battery = 0;
  event.magnitude = 10.0;
  plan.Add(event);
  return plan;
}

// Drives a rig into a non-trivial state and checks encode -> decode ->
// restore -> re-encode is byte-stable (the codec loses nothing the encoder
// can see).
TEST(RigCodecTest, MicroStateRoundTripIsByteStable) {
  SdbMicrocontroller micro = MakeTestMicro(11);
  micro.InstallFaults(SmallPlan());
  ASSERT_TRUE(micro.SetDischargeRatios({0.6, 0.4}).ok());
  for (int i = 0; i < 20; ++i) {
    micro.Step(Watts(5.0), Watts(0.0), Seconds(10.0));
  }
  std::vector<uint8_t> bytes = EncodeMicroState(micro.SaveState());
  StatusOr<MicroState> decoded = DecodeMicroState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  SdbMicrocontroller twin = MakeTestMicro(999);  // Different seed: all state
  twin.InstallFaults(SmallPlan());               // must come from the snapshot.
  ASSERT_TRUE(twin.RestoreState(*decoded).ok());
  EXPECT_EQ(EncodeMicroState(twin.SaveState()), bytes);

  // And the restored twin simulates bit-identically to the original.
  MicroTick a = micro.Step(Watts(5.0), Watts(0.0), Seconds(10.0));
  MicroTick b = twin.Step(Watts(5.0), Watts(0.0), Seconds(10.0));
  EXPECT_EQ(a.discharge.delivered.value(), b.discharge.delivered.value());
  EXPECT_EQ(EncodeMicroState(micro.SaveState()), EncodeMicroState(twin.SaveState()));
}

// The cells' curve memo is derived, not state: reading the curve
// accessors just before encoding must not change a single snapshot byte,
// nor anything the rig does afterwards.
TEST(RigCodecTest, MicroStateBytesIgnoreCurveMemo) {
  SdbMicrocontroller read = MakeTestMicro(11);
  SdbMicrocontroller unread = MakeTestMicro(11);
  auto read_every_accessor = [](const SdbMicrocontroller& micro) {
    double sink = 0.0;
    for (size_t i = 0; i < micro.battery_count(); ++i) {
      const Cell& cell = micro.pack().cell(i);
      sink += cell.OpenCircuitVoltage().value() + cell.InternalResistance().value() +
              cell.NoLoadVoltage().value() + cell.MaxDischargePower().value() +
              cell.MaxChargePower().value() + cell.GetStatus().terminal_voltage.value();
    }
    return sink;
  };
  for (int i = 0; i < 12; ++i) {
    read.Step(Watts(5.0), Watts(i % 3 == 0 ? 9.0 : 0.0), Seconds(10.0));
    unread.Step(Watts(5.0), Watts(i % 3 == 0 ? 9.0 : 0.0), Seconds(10.0));
    EXPECT_GT(read_every_accessor(read), 0.0);
    EXPECT_EQ(EncodeMicroState(read.SaveState()), EncodeMicroState(unread.SaveState()))
        << "tick " << i;
  }
}

TEST(RigCodecTest, MicroStateTruncationRejectedEverywhere) {
  SdbMicrocontroller micro = MakeTestMicro(11);
  micro.InstallFaults(SmallPlan());
  for (int i = 0; i < 5; ++i) {
    micro.Step(Watts(5.0), Watts(0.0), Seconds(10.0));
  }
  std::vector<uint8_t> bytes = EncodeMicroState(micro.SaveState());
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    StatusOr<MicroState> decoded = DecodeMicroState(torn);
    ASSERT_FALSE(decoded.ok()) << "length " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RigCodecTest, MicroRestoreRejectsWrongBatteryCount) {
  SdbMicrocontroller two = MakeTestMicro(11);
  std::vector<uint8_t> bytes = EncodeMicroState(two.SaveState());
  StatusOr<MicroState> decoded = DecodeMicroState(bytes);
  ASSERT_TRUE(decoded.ok());

  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(3000.0)), 0.7);
  SdbMicrocontroller one = MakeDefaultMicrocontroller(std::move(cells), 11);
  Status restored = one.RestoreState(*decoded);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
}

TEST(RigCodecTest, SupervisorStateRoundTripIsByteStable) {
  SdbMicrocontroller micro = MakeTestMicro(13);
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  RecoveryConfig recovery;
  recovery.enabled = true;
  SafetySupervisor safety(limits, recovery);
  micro.AttachSafety(&safety);
  for (int i = 0; i < 10; ++i) {
    micro.Step(Watts(8.0), Watts(0.0), Seconds(10.0));
  }
  std::vector<uint8_t> bytes = EncodeSupervisorState(safety.SaveState());
  StatusOr<SafetySupervisor::SupervisorState> decoded =
      DecodeSupervisorState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  SafetySupervisor twin(limits, recovery);
  ASSERT_TRUE(twin.RestoreState(*decoded).ok());
  EXPECT_EQ(EncodeSupervisorState(twin.SaveState()), bytes);
}

TEST(RigCodecTest, RuntimeStateRoundTripIsByteStable) {
  SdbMicrocontroller micro = MakeTestMicro(17);
  RuntimeConfig config;
  config.reintegration_horizon = Minutes(10.0);
  SdbRuntime runtime(&micro, config);
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  runtime.AdvanceTime(Minutes(1.0));
  WorkloadHint hint;
  hint.time_until = Minutes(30.0);
  hint.expected_power = Watts(12.0);
  hint.duration = Minutes(5.0);
  runtime.SetWorkloadHint(hint);
  std::vector<uint8_t> bytes = EncodeRuntimeState(runtime.SaveState());
  StatusOr<RuntimeState> decoded = DecodeRuntimeState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  SdbRuntime twin(&micro, config);
  ASSERT_TRUE(twin.RestoreState(*decoded).ok());
  EXPECT_EQ(EncodeRuntimeState(twin.SaveState()), bytes);
}

TEST(RigCodecTest, RuntimeRestoreRejectsWrongArity) {
  SdbMicrocontroller micro = MakeTestMicro(19);
  SdbRuntime runtime(&micro);
  RuntimeState state = runtime.SaveState();
  state.ramp = {1.0, 1.0, 1.0};  // Three ramps for a two-battery rig.
  Status restored = runtime.RestoreState(state);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace checkpoint
}  // namespace sdb
