// Flight-recorder event journal: taxonomy names, seq/sim-time stamping,
// ring eviction accounting, scope nesting, JSONL round-trips, and the
// emission macro's lazy-argument contract.
#include "src/obs/event.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/units.h"

namespace sdb {
namespace obs {
namespace {

JournalEvent MakeEvent(EventKind kind, double t_s, int battery,
                       std::string what) {
  JournalEvent event;
  event.kind = kind;
  event.t_s = t_s;
  event.battery = battery;
  event.what = std::move(what);
  return event;
}

TEST(EventKindTest, NamesAreStableKebabCase) {
  EXPECT_STREQ(EventKindName(EventKind::kFaultInjected), "fault-injected");
  EXPECT_STREQ(EventKindName(EventKind::kSafetyTrip), "safety-trip");
  EXPECT_STREQ(EventKindName(EventKind::kPolicyDecision), "policy-decision");
  EXPECT_STREQ(EventKindName(EventKind::kOracleVerdict), "oracle-verdict");
  EXPECT_STREQ(EventKindName(EventKind::kCheckFailure), "check-failure");
  EXPECT_STREQ(EventKindName(static_cast<EventKind>(250)), "unknown");
}

TEST(EventJournalTest, EmitStampsMonotoneSeqAndSnapshotsOldestFirst) {
  EventJournal journal;
  journal.Emit(MakeEvent(EventKind::kSimEvent, 1.0, -1, "a"));
  journal.Emit(MakeEvent(EventKind::kSimEvent, 2.0, -1, "b"));
  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].what, "a");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].what, "b");
  EXPECT_EQ(journal.recorded(), 2u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(EventJournalTest, NegativeTimeIsStampedFromThreadLocalSimClock) {
  EventJournal journal;
  SetSimTime(Seconds(123.5));
  journal.Emit(MakeEvent(EventKind::kSimEvent, -1.0, -1, "stamped"));
  journal.Emit(MakeEvent(EventKind::kSimEvent, 9.0, -1, "explicit"));
  ClearSimTime();
  journal.Emit(MakeEvent(EventKind::kSimEvent, -1.0, -1, "no-clock"));
  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_s, 123.5);
  EXPECT_EQ(events[1].t_s, 9.0);   // An explicit time always wins.
  EXPECT_EQ(events[2].t_s, -1.0);  // No sim timeline: the sentinel stays.
}

TEST(EventJournalTest, RingKeepsNewestAndCountsDrops) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    journal.Emit(MakeEvent(EventKind::kSimEvent, static_cast<double>(i), -1,
                           std::string("e").append(std::to_string(i))));
  }
  EXPECT_EQ(journal.recorded(), 6u);
  EXPECT_EQ(journal.dropped(), 2u);
  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest were evicted; seq exposes the gap to a bundle reader.
  EXPECT_EQ(events[0].seq, 2u);
  EXPECT_EQ(events[0].what, "e2");
  EXPECT_EQ(events[3].seq, 5u);
  EXPECT_EQ(events[3].what, "e5");
}

TEST(EventJournalTest, ClearResetsEventsCountersAndSeq) {
  EventJournal journal(/*capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    journal.Emit(MakeEvent(EventKind::kSimEvent, 0.0, -1, "x"));
  }
  journal.Clear();
  EXPECT_TRUE(journal.Snapshot().empty());
  EXPECT_EQ(journal.recorded(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  journal.Emit(MakeEvent(EventKind::kSimEvent, 0.0, -1, "fresh"));
  EXPECT_EQ(journal.Snapshot().front().seq, 0u);
}

TEST(EventJournalTest, EmitWithNoJournalInstalledIsANoOp) {
  ASSERT_EQ(InstalledJournal(), nullptr);
  EXPECT_FALSE(JournalActive());
  EmitEvent(EventKind::kSimEvent, 0.0, -1, "dropped-on-the-floor");
}

TEST(EventJournalTest, ScopesRouteEmissionsNestAndRestore) {
  EventJournal outer;
  EventJournal inner;
  {
    JournalScope outer_scope(&outer);
    EXPECT_EQ(InstalledJournal(), &outer);
    EmitEvent(EventKind::kSimEvent, 0.0, -1, "to-outer");
    {
      JournalScope inner_scope(&inner);
      EmitEvent(EventKind::kSimEvent, 0.0, -1, "to-inner");
      // A null scope silences emissions without touching either journal.
      JournalScope silence(nullptr);
      EXPECT_FALSE(JournalActive());
      EmitEvent(EventKind::kSimEvent, 0.0, -1, "silenced");
    }
    EXPECT_EQ(InstalledJournal(), &outer);
    EmitEvent(EventKind::kSimEvent, 0.0, -1, "to-outer-again");
  }
  EXPECT_EQ(InstalledJournal(), nullptr);
  EXPECT_EQ(outer.recorded(), 2u);
  EXPECT_EQ(inner.recorded(), 1u);
  EXPECT_EQ(inner.Snapshot().front().what, "to-inner");
}

TEST(EventJsonlTest, RoundTripsEveryFieldByteExactly) {
  JournalEvent event;
  event.kind = EventKind::kSafetyTrip;
  event.seq = 41;
  event.t_s = 0.1;  // Not exactly representable: %.17g must round-trip.
  event.battery = 3;
  event.what = "over-current";
  event.detail = "quote \" slash \\ newline \n tab \t";
  event.value = 7.3000000000000007;
  event.limit = 6.5;
  std::string line = EventToJsonl(event);
  JournalEvent parsed;
  ASSERT_TRUE(EventFromJsonl(line, &parsed));
  EXPECT_EQ(parsed.kind, EventKind::kSafetyTrip);
  EXPECT_EQ(parsed.seq, 41u);
  EXPECT_EQ(parsed.t_s, 0.1);
  EXPECT_EQ(parsed.battery, 3);
  EXPECT_EQ(parsed.what, "over-current");
  EXPECT_EQ(parsed.detail, event.detail);
  EXPECT_EQ(parsed.value, 7.3000000000000007);
  EXPECT_EQ(parsed.limit, 6.5);
  // Equal events serialize to equal bytes — the bundle-diff contract.
  EXPECT_EQ(EventToJsonl(parsed), line);
}

TEST(EventJsonlTest, FixedFieldOrderIsTheWireContract) {
  JournalEvent event = MakeEvent(EventKind::kQuarantine, 60.0, 1, "safety");
  EXPECT_EQ(EventToJsonl(event),
            "{\"seq\":0,\"t_s\":60,\"kind\":\"quarantine\",\"battery\":1,"
            "\"what\":\"safety\",\"detail\":\"\",\"value\":0,\"limit\":0}");
}

TEST(EventJsonlTest, MalformedLinesAreRejected) {
  JournalEvent event;
  EXPECT_FALSE(EventFromJsonl("", &event));
  EXPECT_FALSE(EventFromJsonl("not json", &event));
  EXPECT_FALSE(EventFromJsonl("{\"seq\":1}", &event));
}

TEST(EventJsonlTest, UnknownKindParsesAsDefault) {
  std::string line =
      "{\"seq\":0,\"t_s\":1,\"kind\":\"from-the-future\",\"battery\":-1,"
      "\"what\":\"\",\"detail\":\"\",\"value\":0,\"limit\":0}";
  JournalEvent event;
  ASSERT_TRUE(EventFromJsonl(line, &event));
  EXPECT_EQ(event.kind, EventKind::kSimEvent);
}

#if SDB_JOURNAL
TEST(EventMacroTest, SkipsArgumentEvaluationWhenNoJournalIsInstalled) {
  int calls = 0;
  auto expensive = [&calls]() {
    ++calls;
    return std::string("payload");
  };
  SDB_JOURNAL_EVENT(EventKind::kSimEvent, 0.0, -1, expensive());
  EXPECT_EQ(calls, 0);
  EventJournal journal;
  JournalScope scope(&journal);
  SDB_JOURNAL_EVENT(EventKind::kSimEvent, 0.0, -1, expensive());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(journal.recorded(), 1u);
}
#else
TEST(EventMacroTest, CompilesOutCompletely) {
  EventJournal journal;
  JournalScope scope(&journal);
  SDB_JOURNAL_EVENT(EventKind::kSimEvent, 0.0, -1, "gone");
  EXPECT_EQ(journal.recorded(), 0u);
}
#endif  // SDB_JOURNAL

}  // namespace
}  // namespace obs
}  // namespace sdb
