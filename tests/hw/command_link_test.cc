#include "src/hw/command_link.h"

#include <algorithm>
#include <optional>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/util/rng.h"

namespace sdb {
namespace {

SdbMicrocontroller MakeMicro(double soc0 = 0.8, double soc1 = 0.6) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc1);
  return MakeDefaultMicrocontroller(std::move(cells), 9);
}

TEST(Crc16Test, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc16(data, sizeof(data)), 0x29B1);
}

// The bitwise CRC-16/CCITT-FALSE register loop, frozen as the reference the
// table-driven Crc16 must reproduce.
uint16_t BitwiseCrc16(const uint8_t* data, size_t size) {
  uint16_t crc = 0xFFFF;
  for (size_t i = 0; i < size; ++i) {
    crc ^= static_cast<uint16_t>(data[i]) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000) {
        crc = static_cast<uint16_t>((crc << 1) ^ 0x1021);
      } else {
        crc = static_cast<uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t size) {
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return bytes;
}

TEST(Crc16Test, MatchesBitwiseReference) {
  Rng rng(0xC0FFEE);
  for (size_t size = 0; size <= 300; ++size) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<uint8_t> bytes = RandomBytes(rng, size);
      ASSERT_EQ(Crc16(bytes.data(), bytes.size()), BitwiseCrc16(bytes.data(), bytes.size()))
          << "size " << size << " trial " << trial;
    }
  }
}

// The decoder as it was before it kept a running CRC: it re-covers length,
// type and payload in one buffer per frame and runs the bitwise CRC over it.
// Fed the same bytes, FrameDecoder must pop the same frames and counts.
class ReferenceDecoder {
 public:
  void Feed(uint8_t byte, std::vector<Frame>& out) {
    switch (state_) {
      case 0:
        state_ = byte == 0xA5 ? 1 : 0;
        return;
      case 1:
        length_ = byte;
        payload_.clear();
        state_ = 2;
        return;
      case 2:
        type_ = byte;
        state_ = length_ > 0 ? 3 : 4;
        return;
      case 3:
        payload_.push_back(byte);
        state_ = payload_.size() == length_ ? 4 : 3;
        return;
      case 4:
        crc_ = static_cast<uint16_t>(byte) << 8;
        state_ = 5;
        return;
      default: {
        crc_ |= byte;
        state_ = 0;
        std::vector<uint8_t> covered = {length_, type_};
        covered.insert(covered.end(), payload_.begin(), payload_.end());
        if (BitwiseCrc16(covered.data(), covered.size()) != crc_) {
          ++crc_errors;
          return;
        }
        ++frames_decoded;
        out.push_back(Frame{static_cast<MessageType>(type_), payload_});
        return;
      }
    }
  }

  size_t crc_errors = 0;
  size_t frames_decoded = 0;

 private:
  int state_ = 0;
  uint8_t length_ = 0;
  uint8_t type_ = 0;
  std::vector<uint8_t> payload_;
  uint16_t crc_ = 0;
};

// A seeded stream of frames (0-255 byte payloads) with line noise between
// some of them and single-byte corruptions in others.
std::vector<uint8_t> NoisyFrameStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> stream;
  for (int f = 0; f < 60; ++f) {
    Frame frame{static_cast<MessageType>(rng.NextBounded(256)),
                RandomBytes(rng, rng.NextBounded(256))};
    std::vector<uint8_t> bytes = EncodeFrame(frame);
    if (rng.Bernoulli(0.25)) {
      bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    if (rng.Bernoulli(0.2)) {
      std::vector<uint8_t> noise = RandomBytes(rng, rng.NextBounded(8));
      stream.insert(stream.end(), noise.begin(), noise.end());
    }
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

void ExpectSameFrames(const std::vector<Frame>& got, const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
  }
}

TEST(FrameCodecTest, RunningCrcMatchesReferenceDecoder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<uint8_t> stream = NoisyFrameStream(seed);
    ReferenceDecoder reference;
    std::vector<Frame> want;
    for (uint8_t b : stream) {
      reference.Feed(b, want);
    }
    ASSERT_GT(reference.crc_errors, 0u);
    ASSERT_GT(reference.frames_decoded, 0u);

    // Byte by byte.
    FrameDecoder bytewise;
    std::vector<Frame> got;
    for (uint8_t b : stream) {
      if (std::optional<Frame> frame = bytewise.Feed(b)) {
        got.push_back(std::move(*frame));
      }
    }
    ExpectSameFrames(got, want);
    EXPECT_EQ(bytewise.frames_decoded(), reference.frames_decoded);
    EXPECT_EQ(bytewise.crc_errors(), reference.crc_errors);

    // In chunks split at seeded points, frames straddling the splits.
    Rng splits(seed + 1000);
    FrameDecoder chunked;
    got.clear();
    for (size_t at = 0; at < stream.size();) {
      const size_t len = std::min<size_t>(1 + splits.NextBounded(64), stream.size() - at);
      chunked.Feed(std::vector<uint8_t>(stream.begin() + at, stream.begin() + at + len), got);
      at += len;
    }
    ExpectSameFrames(got, want);
    EXPECT_EQ(chunked.frames_decoded(), reference.frames_decoded);
    EXPECT_EQ(chunked.crc_errors(), reference.crc_errors);
  }
}

TEST(FrameCodecTest, EncodeDecodeRoundtrip) {
  Frame frame{MessageType::kSetDischargeRatios, {1, 2, 3, 4}};
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(bytes, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, MessageType::kSetDischargeRatios);
  EXPECT_EQ(out[0].payload, frame.payload);
  EXPECT_EQ(decoder.crc_errors(), 0u);
}

TEST(FrameCodecTest, EmptyPayloadFrame) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{MessageType::kQueryStatus, {}});
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(bytes, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].payload.empty());
}

TEST(FrameCodecTest, DecoderHandlesBytewiseDelivery) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{MessageType::kAck, {0}});
  FrameDecoder decoder;
  std::optional<Frame> frame;
  for (size_t i = 0; i < bytes.size(); ++i) {
    frame = decoder.Feed(bytes[i]);
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(frame.has_value());
    }
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kAck);
}

TEST(FrameCodecTest, CorruptedFrameDroppedAndCounted) {
  std::vector<uint8_t> bytes = EncodeFrame(Frame{MessageType::kAck, {0}});
  bytes[3] ^= 0xFF;  // Flip payload bits.
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(bytes, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(decoder.crc_errors(), 1u);
}

TEST(FrameCodecTest, ResyncsAfterGarbage) {
  std::vector<uint8_t> stream = {0x00, 0x13, 0x37};  // Line noise.
  std::vector<uint8_t> good = EncodeFrame(Frame{MessageType::kQueryStatus, {}});
  stream.insert(stream.end(), good.begin(), good.end());
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(stream, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, MessageType::kQueryStatus);
}

TEST(FrameCodecTest, BackToBackFrames) {
  std::vector<uint8_t> stream = EncodeFrame(Frame{MessageType::kAck, {0}});
  std::vector<uint8_t> second = EncodeFrame(Frame{MessageType::kAck, {3}});
  stream.insert(stream.end(), second.begin(), second.end());
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(stream, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].payload[0], 3);
}

class LinkFixture : public ::testing::Test {
 protected:
  LinkFixture()
      : micro_(MakeMicro()),
        server_(&micro_),
        client_([this](const std::vector<uint8_t>& bytes) { return server_.Receive(bytes); }) {}

  SdbMicrocontroller micro_;
  CommandLinkServer server_;
  CommandLinkClient client_;
};

TEST_F(LinkFixture, SetDischargeRatiosOverTheWire) {
  ASSERT_TRUE(client_.SetDischargeRatios({0.25, 0.75}).ok());
  EXPECT_NEAR(micro_.discharge_ratios()[0], 0.25, 1e-6);
  EXPECT_NEAR(micro_.discharge_ratios()[1], 0.75, 1e-6);
}

TEST_F(LinkFixture, InvalidRatiosRejectedRemotely) {
  Status status = client_.SetDischargeRatios({0.9, 0.9});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(LinkFixture, ChargeRatiosAndProfileSelection) {
  EXPECT_TRUE(client_.SetChargeRatios({0.5, 0.5}).ok());
  EXPECT_TRUE(client_.SelectChargeProfile(0, 1).ok());
  EXPECT_EQ(client_.SelectChargeProfile(7, 0).code(), StatusCode::kOutOfRange);
}

TEST_F(LinkFixture, TransferCommandOverTheWire) {
  ASSERT_TRUE(client_.ChargeOneFromAnother(0, 1, Watts(5.0), Minutes(2.0)).ok());
  EXPECT_TRUE(micro_.transfer_active());
  EXPECT_EQ(client_.ChargeOneFromAnother(0, 0, Watts(5.0), Minutes(2.0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LinkFixture, QueryStatusRoundtrips) {
  auto statuses = client_.QueryBatteryStatus();
  ASSERT_TRUE(statuses.ok());
  ASSERT_EQ(statuses->size(), 2u);
  EXPECT_NEAR((*statuses)[0].soc, 0.8, 0.02);
  EXPECT_NEAR((*statuses)[1].soc, 0.6, 0.02);
  EXPECT_GT((*statuses)[0].full_capacity.value(), 0.0);
  EXPECT_NEAR(ToCelsius((*statuses)[0].temperature), 25.0, 1.0);
}

TEST(LossyLinkTest, CorruptionYieldsErrorNotWrongState) {
  SdbMicrocontroller micro = MakeMicro();
  CommandLinkServer server(&micro);
  Rng rng(77);
  int drop_every = 3;
  int counter = 0;
  CommandLinkClient client([&](const std::vector<uint8_t>& bytes) {
    std::vector<uint8_t> corrupted = bytes;
    if (++counter % drop_every == 0) {
      corrupted[rng.NextBounded(corrupted.size())] ^= 0x40;  // Flip a bit.
    }
    return server.Receive(corrupted);
  });
  int ok = 0, failed = 0;
  for (int i = 0; i < 30; ++i) {
    Status status = client.SetDischargeRatios({0.5, 0.5});
    if (status.ok()) {
      ++ok;
    } else {
      ++failed;
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(server.crc_errors(), 0u);
  // State was never corrupted: ratios remain a valid vector.
  double sum = micro.discharge_ratios()[0] + micro.discharge_ratios()[1];
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(LinkResyncTest, ExplicitResyncReportsBootCount) {
  SdbMicrocontroller micro = MakeMicro();
  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });
  ASSERT_TRUE(client.Resync().ok());
  EXPECT_EQ(client.resyncs(), 1u);
  EXPECT_EQ(client.last_boot_count(), 0u);
}

TEST(LinkResyncTest, RebootTriggersHandshakeAndRetry) {
  SdbMicrocontroller micro = MakeMicro();
  FaultPlan plan;
  plan.Add({.kind = FaultClass::kMicroCrash,
            .start = Seconds(0.0),
            .end = Seconds(1.0)});
  micro.InstallFaults(plan);
  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });

  micro.Step(Watts(1.0), Watts(0.0), Seconds(1.0));  // Crash window at t=0.
  ASSERT_TRUE(micro.awaiting_resync());

  // One API call: the client sees FailedPrecondition, runs the handshake
  // and retries — the caller only sees the final success.
  ASSERT_TRUE(client.SetDischargeRatios({0.25, 0.75}).ok());
  EXPECT_EQ(client.resyncs(), 1u);
  EXPECT_EQ(client.last_boot_count(), 1u);
  EXPECT_FALSE(micro.awaiting_resync());
  EXPECT_NEAR(micro.discharge_ratios()[0], 0.25, 1e-6);
}

TEST(LinkResyncTest, BrownoutYieldsUnavailableThenRecovers) {
  SdbMicrocontroller micro = MakeMicro();
  FaultPlan plan;
  plan.Add({.kind = FaultClass::kMicroBrownout,
            .start = Seconds(0.0),
            .end = Seconds(10.0)});
  micro.InstallFaults(plan);
  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });

  micro.Step(Watts(1.0), Watts(0.0), Seconds(1.0));
  ASSERT_TRUE(micro.in_reset());
  // While held in reset everything fails, queries included.
  EXPECT_EQ(client.SetDischargeRatios({0.25, 0.75}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.QueryBatteryStatus().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.Resync().code(), StatusCode::kUnavailable);

  // Power returns: the first mutating command resyncs and lands.
  for (int i = 0; i < 10; ++i) {
    micro.Step(Watts(1.0), Watts(0.0), Seconds(1.0));
  }
  ASSERT_FALSE(micro.in_reset());
  ASSERT_TRUE(micro.awaiting_resync());
  ASSERT_TRUE(client.SetDischargeRatios({0.25, 0.75}).ok());
  EXPECT_EQ(client.resyncs(), 1u);
  EXPECT_NEAR(micro.discharge_ratios()[0], 0.25, 1e-6);
}

TEST(LinkReplayTest, DuplicateDeliveryAnswersFromCache) {
  SdbMicrocontroller micro = MakeMicro();
  CommandLinkServer server(&micro);
  std::vector<uint8_t> last_request;
  CommandLinkClient client([&](const std::vector<uint8_t>& bytes) {
    last_request = bytes;
    return server.Receive(bytes);
  });
  ASSERT_TRUE(client.ChargeOneFromAnother(0, 1, Watts(5.0), Minutes(2.0)).ok());
  EXPECT_TRUE(micro.transfer_active());

  // The reply was "lost" and the same request bytes arrive again: the
  // server must answer from its replay cache with identical bytes instead
  // of re-running the command.
  std::vector<uint8_t> request = last_request;
  std::vector<uint8_t> replay_a = server.Receive(request);
  std::vector<uint8_t> replay_b = server.Receive(request);
  EXPECT_EQ(server.replayed_commands(), 2u);
  EXPECT_EQ(replay_a, replay_b);
  EXPECT_TRUE(micro.transfer_active());
}

TEST(LinkReplayTest, RebootInvalidatesTheReplayCache) {
  SdbMicrocontroller micro = MakeMicro();
  FaultPlan plan;
  plan.Add({.kind = FaultClass::kMicroCrash,
            .start = Seconds(5.0),
            .end = Seconds(6.0)});
  micro.InstallFaults(plan);
  CommandLinkServer server(&micro);
  std::vector<uint8_t> last_request;
  CommandLinkClient client([&](const std::vector<uint8_t>& bytes) {
    last_request = bytes;
    return server.Receive(bytes);
  });
  ASSERT_TRUE(client.ChargeOneFromAnother(0, 1, Watts(5.0), Minutes(2.0)).ok());
  std::vector<uint8_t> request = last_request;

  micro.Step(Watts(1.0), Watts(0.0), Seconds(5.0));
  micro.Step(Watts(1.0), Watts(0.0), Seconds(0.5));  // Reboot fires here.
  ASSERT_TRUE(micro.awaiting_resync());

  // A stale pre-reboot duplicate must NOT be served from the cache: the
  // boot count changed, so the server re-evaluates and the gate refuses it.
  std::vector<uint8_t> reply = server.Receive(request);
  EXPECT_EQ(server.replayed_commands(), 0u);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  decoder.Feed(reply, frames);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, MessageType::kAck);
  ASSERT_EQ(frames[0].payload.size(), 1u);
  EXPECT_EQ(static_cast<StatusCode>(frames[0].payload[0]),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sdb
