// Post-mortem bundle writer/reader: digest stability, manifest round-trip,
// last-N event truncation, reproducer gating, and tolerance for malformed
// event lines.
#include "src/obs/postmortem.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace sdb {
namespace obs {
namespace {

std::filesystem::path UniqueDir(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

std::string ReadWholeFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

JournalEvent MakeEvent(uint64_t seq, const std::string& what) {
  JournalEvent event;
  event.kind = EventKind::kSimEvent;
  event.seq = seq;
  event.t_s = static_cast<double>(seq) * 30.0;
  event.what = what;
  return event;
}

TEST(DigestConfigTest, IsSixteenLowercaseHexAndInputSensitive) {
  std::string digest = DigestConfig("fuzz --seed 5 --cases 64");
  ASSERT_EQ(digest.size(), 16u);
  for (char c : digest) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << "not lowercase hex: " << digest;
  }
  EXPECT_EQ(digest, DigestConfig("fuzz --seed 5 --cases 64"));
  EXPECT_NE(digest, DigestConfig("fuzz --seed 6 --cases 64"));
  // The FNV-1a offset basis for the empty string, pinned: digests land in
  // manifests that are diffed byte-for-byte across runs.
  EXPECT_EQ(DigestConfig(""), "cbf29ce484222325");
}

TEST(PostmortemBundleTest, WriteThenReadRoundTripsManifestAndEvents) {
  std::filesystem::path dir = UniqueDir("bundle_roundtrip");
  PostmortemManifest manifest;
  manifest.tool = "sdbsim fuzz";
  manifest.trigger = "fuzz-oracle";
  manifest.git_sha = "abc123";
  manifest.seed = 42;
  manifest.jobs = 8;
  manifest.config_digest = DigestConfig("fuzz --seed 42");
  manifest.reproducer = "pack=phone-day seed=42 dch=0.05 chg=0.5";

  std::vector<JournalEvent> events = {MakeEvent(0, "first"), MakeEvent(1, "second")};
  ASSERT_EQ(WritePostmortemBundle(dir.string(), manifest, events,
                                  "{\"counters\":{}}"),
            "");

  PostmortemManifest read;
  ASSERT_EQ(ReadPostmortemManifest(dir.string(), &read), "");
  EXPECT_EQ(read.tool, "sdbsim fuzz");
  EXPECT_EQ(read.trigger, "fuzz-oracle");
  EXPECT_EQ(read.git_sha, "abc123");
  EXPECT_EQ(read.seed, 42u);
  EXPECT_EQ(read.jobs, 8);
  EXPECT_EQ(read.config_digest, manifest.config_digest);
  EXPECT_EQ(read.reproducer, manifest.reproducer);

  std::vector<JournalEvent> read_events;
  size_t skipped = 99;
  ASSERT_EQ(ReadPostmortemEvents(dir.string(), &read_events, &skipped), "");
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(read_events.size(), 2u);
  EXPECT_EQ(read_events[0].what, "first");
  EXPECT_EQ(read_events[1].what, "second");
  // The reproducer file exists exactly because the manifest carries one.
  EXPECT_TRUE(std::filesystem::exists(dir / "reproducer.txt"));
  EXPECT_EQ(ReadWholeFile(dir / "reproducer.txt"), manifest.reproducer + "\n");
  EXPECT_EQ(ReadWholeFile(dir / "metrics.json"), "{\"counters\":{}}\n");
}

TEST(PostmortemBundleTest, CreatesMissingParentDirectories) {
  std::filesystem::path dir = UniqueDir("bundle_nested") / "a" / "b";
  ASSERT_EQ(WritePostmortemBundle(dir.string(), PostmortemManifest{}, {}, "{}"), "");
  EXPECT_TRUE(std::filesystem::exists(dir / "manifest.json"));
}

TEST(PostmortemBundleTest, KeepsOnlyTheNewestLastNEvents) {
  std::filesystem::path dir = UniqueDir("bundle_lastn");
  std::vector<JournalEvent> events;
  for (uint64_t i = 0; i < 10; ++i) {
    events.push_back(MakeEvent(i, std::string("e").append(std::to_string(i))));
  }
  ASSERT_EQ(WritePostmortemBundle(dir.string(), PostmortemManifest{}, events, "{}",
                                  /*last_n=*/3),
            "");
  std::vector<JournalEvent> read_events;
  ASSERT_EQ(ReadPostmortemEvents(dir.string(), &read_events), "");
  ASSERT_EQ(read_events.size(), 3u);
  EXPECT_EQ(read_events[0].what, "e7");
  EXPECT_EQ(read_events[2].what, "e9");
}

TEST(PostmortemBundleTest, OmitsReproducerFileWhenEmpty) {
  std::filesystem::path dir = UniqueDir("bundle_norepro");
  PostmortemManifest manifest;  // reproducer defaults to "".
  ASSERT_EQ(WritePostmortemBundle(dir.string(), manifest, {}, "{}"), "");
  EXPECT_FALSE(std::filesystem::exists(dir / "reproducer.txt"));
}

TEST(PostmortemBundleTest, SkipsMalformedEventLinesAndCountsThem) {
  std::filesystem::path dir = UniqueDir("bundle_malformed");
  ASSERT_EQ(WritePostmortemBundle(dir.string(), PostmortemManifest{},
                                  {MakeEvent(0, "good")}, "{}"),
            "");
  {
    std::ofstream out(dir / "events.jsonl", std::ios::app);
    out << "this line is not json\n";
    out << EventToJsonl(MakeEvent(1, "also-good")) << "\n";
  }
  std::vector<JournalEvent> read_events;
  size_t skipped = 0;
  ASSERT_EQ(ReadPostmortemEvents(dir.string(), &read_events, &skipped), "");
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(read_events.size(), 2u);
  EXPECT_EQ(read_events[0].what, "good");
  EXPECT_EQ(read_events[1].what, "also-good");
}

// --- Corrupt-bundle fixtures ------------------------------------------------
// A bundle on disk can be damaged in ways the writer never produces: a
// truncated events.jsonl (crash or full disk mid-write), a manifest that is
// not JSON, or a manifest missing required keys. Each must surface a clear
// error message — never a crash, never silently-defaulted garbage.

std::filesystem::path MakeBundle(const std::string& name, size_t events = 2) {
  std::filesystem::path dir = UniqueDir(name);
  PostmortemManifest manifest;
  manifest.tool = "sdbsim soak";
  manifest.trigger = "soak-violation";
  manifest.seed = 7;
  manifest.config_digest = DigestConfig("soak --seed 7");
  std::vector<JournalEvent> all;
  for (uint64_t i = 0; i < events; ++i) {
    all.push_back(MakeEvent(i, std::string("e").append(std::to_string(i))));
  }
  EXPECT_EQ(WritePostmortemBundle(dir.string(), manifest, all, "{}"), "");
  return dir;
}

TEST(CorruptBundleTest, TruncatedEventsTailIsAnError) {
  std::filesystem::path dir = MakeBundle("bundle_torn_tail", 3);
  std::string text = ReadWholeFile(dir / "events.jsonl");
  ASSERT_GT(text.size(), 10u);
  {
    std::ofstream out(dir / "events.jsonl", std::ios::trunc);
    out << text.substr(0, text.size() - 10);  // Cut mid-line, no newline.
  }
  std::vector<JournalEvent> events;
  size_t skipped = 0;
  std::string error = ReadPostmortemEvents(dir.string(), &events, &skipped);
  ASSERT_NE(error, "");
  EXPECT_NE(error.find("mid-line"), std::string::npos) << error;
  // Everything before the tear was still recovered for display.
  EXPECT_EQ(events.size(), 2u);
}

TEST(CorruptBundleTest, AllMalformedEventLinesIsAnError) {
  std::filesystem::path dir = MakeBundle("bundle_all_bad", 1);
  {
    std::ofstream out(dir / "events.jsonl", std::ios::trunc);
    out << "not json\n{\"also\":\"not an event\"}\n";
  }
  std::vector<JournalEvent> events;
  size_t skipped = 0;
  std::string error = ReadPostmortemEvents(dir.string(), &events, &skipped);
  ASSERT_NE(error, "");
  EXPECT_NE(error.find("no parseable"), std::string::npos) << error;
  EXPECT_EQ(skipped, 2u);
}

TEST(CorruptBundleTest, EmptyEventsFileIsFine) {
  // A run that journaled nothing writes a zero-line file; that is a valid
  // (if boring) bundle, not corruption.
  std::filesystem::path dir = MakeBundle("bundle_no_events", 0);
  std::vector<JournalEvent> events = {MakeEvent(0, "stale")};
  ASSERT_EQ(ReadPostmortemEvents(dir.string(), &events), "");
  EXPECT_TRUE(events.empty());
}

TEST(CorruptBundleTest, NonJsonManifestIsAnError) {
  std::filesystem::path dir = MakeBundle("bundle_manifest_garbage");
  {
    std::ofstream out(dir / "manifest.json", std::ios::trunc);
    out << "<html>definitely not a manifest</html>\n";
  }
  PostmortemManifest manifest;
  std::string error = ReadPostmortemManifest(dir.string(), &manifest);
  ASSERT_NE(error, "");
  EXPECT_NE(error.find("not a JSON object"), std::string::npos) << error;
}

TEST(CorruptBundleTest, MissingManifestKeysAreNamedInTheError) {
  std::filesystem::path dir = MakeBundle("bundle_manifest_missing");
  {
    std::ofstream out(dir / "manifest.json", std::ios::trunc);
    out << "{\"tool\":\"sdbsim soak\",\"jobs\":2}\n";  // No trigger/seed/digest.
  }
  PostmortemManifest manifest;
  std::string error = ReadPostmortemManifest(dir.string(), &manifest);
  ASSERT_NE(error, "");
  EXPECT_NE(error.find("trigger"), std::string::npos) << error;
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_NE(error.find("config_digest"), std::string::npos) << error;
}

TEST(CorruptBundleTest, EmptyManifestFileIsAnError) {
  std::filesystem::path dir = MakeBundle("bundle_manifest_empty");
  {
    std::ofstream out(dir / "manifest.json", std::ios::trunc);
  }
  PostmortemManifest manifest;
  EXPECT_NE(ReadPostmortemManifest(dir.string(), &manifest), "");
}

TEST(PostmortemBundleTest, ReadersReportMissingBundles) {
  std::string missing = UniqueDir("no_such_bundle").string();
  PostmortemManifest manifest;
  std::vector<JournalEvent> events;
  EXPECT_NE(ReadPostmortemManifest(missing, &manifest), "");
  EXPECT_NE(ReadPostmortemEvents(missing, &events), "");
}

TEST(PostmortemBundleTest, SameInputsProduceByteIdenticalDeterministicFiles) {
  std::filesystem::path dir_a = UniqueDir("bundle_det_a");
  std::filesystem::path dir_b = UniqueDir("bundle_det_b");
  PostmortemManifest manifest;
  manifest.tool = "sdbsim soak";
  manifest.trigger = "soak-violation";
  manifest.seed = 7;
  std::vector<JournalEvent> events = {MakeEvent(0, "trip")};
  ASSERT_EQ(WritePostmortemBundle(dir_a.string(), manifest, events, "{}"), "");
  ASSERT_EQ(WritePostmortemBundle(dir_b.string(), manifest, events, "{}"), "");
  EXPECT_EQ(ReadWholeFile(dir_a / "manifest.json"), ReadWholeFile(dir_b / "manifest.json"));
  EXPECT_EQ(ReadWholeFile(dir_a / "events.jsonl"), ReadWholeFile(dir_b / "events.jsonl"));
}

}  // namespace
}  // namespace obs
}  // namespace sdb
