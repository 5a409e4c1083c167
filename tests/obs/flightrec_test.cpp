// Flight recorder: lock-free recording, signal-safe dumps, forensics
// rendering. The concurrency tests carry the binary's `sanitize` label,
// so the tsan preset hammers concurrent record/dump; the death test
// proves the dump-on-failure path end to end (a real SIGSEGV commits a
// schema-valid dump before the process dies).
#include "obs/flightrec.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "obs/forensics.hpp"
#include "obs/json.hpp"

namespace intox::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Finds this thread's lane object ("hot" or "decision") in a parsed
/// dump; nullptr when absent.
const JsonValue* find_lane(const JsonValue& doc, std::uint32_t tid,
                           const char* lane) {
  const JsonValue* threads = doc.find("threads");
  if (threads == nullptr || !threads->is_array()) return nullptr;
  for (const JsonValue& t : threads->items) {
    const JsonValue* id = t.find("tid");
    if (id == nullptr || id->as_u64() != tid) continue;
    const JsonValue* lanes = t.find("lanes");
    if (lanes == nullptr || !lanes->is_array()) return nullptr;
    for (const JsonValue& l : lanes->items) {
      const JsonValue* name = l.find("lane");
      if (name != nullptr && name->text == lane) return &l;
    }
  }
  return nullptr;
}

TEST(Flightrec, RecordingBumpsTheProcessCounter) {
  const std::uint64_t before = flightrec_records_recorded();
  flightrec_record(FrType::kNote, 1, 2, 3, 4);
  flightrec_record(FrType::kSchedFire, 5);
  EXPECT_EQ(flightrec_records_recorded(), before + 2);
  EXPECT_GE(flightrec_registered_threads(), 1u);
}

TEST(Flightrec, TypeNamesAreStable) {
  EXPECT_STREQ(flightrec_type_name(FrType::kSchedFire), "sched.fire");
  EXPECT_STREQ(flightrec_type_name(FrType::kBlinkReroute), "blink.reroute");
  EXPECT_STREQ(flightrec_type_name(FrType::kPccDecision), "pcc.decision");
  EXPECT_STREQ(flightrec_type_name(static_cast<FrType>(999)), "none");
}

TEST(Flightrec, DumpIsSchemaValidAndAccountsForEveryRecord) {
  flightrec_set_scenario("flightrec.unit");
  const std::uint32_t tid = flightrec_this_thread_tid();
  // A sentinel in each lane: kSchedFire lands hot, kNote decision.
  flightrec_record(FrType::kSchedFire, 777001, 1, 2, 3);
  flightrec_record(FrType::kNote, 777002, 4, 5, 6);

  const std::string path = temp_path("flightrec_unit.json");
  ASSERT_TRUE(flightrec_dump(path.c_str(), "manual", "unit test"));

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse_file(path, &doc, &error)) << error;
  EXPECT_EQ(doc.find("schema")->text, kFlightrecSchema);
  EXPECT_EQ(doc.find("reason")->text, "manual");
  EXPECT_EQ(doc.find("detail")->text, "unit test");
  EXPECT_EQ(doc.find("scenario")->text, "flightrec.unit");
  EXPECT_GT(doc.find("pid")->as_u64(), 0u);
  ASSERT_EQ(doc.find("types")->items.size(), kFrTypeCount);
  EXPECT_EQ(doc.find("types")->items[1].text, "sched.fire");
  EXPECT_EQ(doc.find("invariants"), nullptr);

  for (const char* lane : {"hot", "decision"}) {
    const JsonValue* l = find_lane(doc, tid, lane);
    ASSERT_NE(l, nullptr) << lane;
    // recorded == dropped + kept is the lane bookkeeping invariant.
    EXPECT_EQ(l->find("recorded")->as_u64(),
              l->find("dropped")->as_u64() +
                  l->find("records")->items.size())
        << lane;
  }
  // The sentinels are the newest entries of their lanes, words intact.
  const JsonValue* hot = find_lane(doc, tid, "hot");
  const JsonValue& last_hot = hot->find("records")->items.back();
  ASSERT_EQ(last_hot.items.size(), 5u);
  EXPECT_EQ(last_hot.items[0].as_u64(), 777001u);
  EXPECT_EQ(last_hot.items[1].as_u64(),
            static_cast<std::uint64_t>(FrType::kSchedFire));
  EXPECT_EQ(last_hot.items[4].as_u64(), 3u);
  const JsonValue* decision = find_lane(doc, tid, "decision");
  const JsonValue& last_dec = decision->find("records")->items.back();
  EXPECT_EQ(last_dec.items[0].as_u64(), 777002u);
  EXPECT_EQ(last_dec.items[4].as_u64(), 6u);
  std::remove(path.c_str());
}

TEST(Flightrec, RingKeepsTheLastRecordsWhenOverflowed) {
  const std::uint32_t tid = flightrec_this_thread_tid();
  // Well past the decision-lane capacity (1024): the ring must keep
  // the *newest* records and account for the evictions.
  constexpr std::uint64_t kWrites = 3000;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    flightrec_record(FrType::kNote, i, i, 0, 0);
  }
  const std::string path = temp_path("flightrec_overflow.json");
  ASSERT_TRUE(flightrec_dump(path.c_str(), "manual", nullptr));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse_file(path, &doc, &error)) << error;
  const JsonValue* lane = find_lane(doc, tid, "decision");
  ASSERT_NE(lane, nullptr);
  EXPECT_GT(lane->find("dropped")->as_u64(), 0u);
  EXPECT_EQ(lane->find("recorded")->as_u64(),
            lane->find("dropped")->as_u64() +
                lane->find("records")->items.size());
  const JsonValue& newest = lane->find("records")->items.back();
  EXPECT_EQ(newest.items[0].as_u64(), kWrites - 1);
  std::remove(path.c_str());
}

TEST(Flightrec, ConcurrentRecordAndDumpIsRaceFree) {
  // TSan target: four writers flooding both lanes while the main thread
  // dumps repeatedly. Torn records are acceptable; races are not. No
  // writer exits before all have recorded, so none takes over another's
  // rings.
  const std::string path = temp_path("flightrec_stress.json");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::latch all_recorded{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &all_recorded] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        flightrec_record(FrType::kSchedFire, i, static_cast<std::uint64_t>(w));
        if ((i & 1023) == 0) {
          flightrec_record(FrType::kPccDecision, i, 1, i, i + 1);
        }
      }
      all_recorded.arrive_and_wait();
    });
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(flightrec_dump(path.c_str(), "manual", "stress"));
  }
  for (std::thread& t : writers) t.join();
  // A final quiescent dump parses and sees every writer thread.
  ASSERT_TRUE(flightrec_dump(path.c_str(), "manual", "stress"));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse_file(path, &doc, &error)) << error;
  EXPECT_GE(doc.find("threads")->items.size(),
            static_cast<std::size_t>(kWriters));
  std::remove(path.c_str());
}

// A thread that exits hands its rings on. Without reuse, ~600
// short-lived threads took a ring pair each and, past 512 pairs, new
// threads stopped recording.
TEST(Flightrec, ExitedThreadsHandTheirRingsOn) {
  constexpr std::uint64_t kThreads = 600;
  constexpr std::uint64_t kFirstTime = 888000000;
  const std::size_t before = flightrec_registered_threads();
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    std::thread t([i] { flightrec_record(FrType::kNote, kFirstTime + i); });
    t.join();
  }
  EXPECT_LE(flightrec_registered_threads(), before + 1);

  const std::string path = temp_path("flightrec_reuse.json");
  ASSERT_TRUE(flightrec_dump(path.c_str(), "manual", "reuse"));
  FlightrecDump dump;
  std::string error;
  ASSERT_TRUE(load_flightrec_dump(path, &dump, &error)) << error;
  bool found = false;
  for (const FlightrecRecord& r : dump.records) {
    if (r.type == FrType::kNote && r.time == kFirstTime + kThreads - 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "the last thread's record is missing";
  std::remove(path.c_str());
}

TEST(Flightrec, ForensicsRendersTheDump) {
  flightrec_set_scenario("flightrec.render");
  flightrec_record(FrType::kBlinkReroute, 2500000000ull, 0x0a000000u, 8, 3);
  flightrec_record(FrType::kPccDecision, 3000000000ull, 2, 4000000, 2000000);
  const std::string path = temp_path("flightrec_render.json");
  ASSERT_TRUE(flightrec_dump(path.c_str(), "manual", "render"));

  FlightrecDump dump;
  std::string error;
  ASSERT_TRUE(load_flightrec_dump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.scenario, "flightrec.render");
  ASSERT_FALSE(dump.records.empty());
  // Records arrive (time, tid, seq)-sorted.
  for (std::size_t i = 1; i < dump.records.size(); ++i) {
    EXPECT_LE(dump.records[i - 1].time, dump.records[i].time);
  }

  const std::string timeline = render_flightrec_timeline(dump);
  EXPECT_NE(timeline.find("flightrec.render"), std::string::npos);
  EXPECT_NE(timeline.find("REROUTE"), std::string::npos);
  EXPECT_NE(timeline.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(timeline.find("rate DOWN"), std::string::npos);
  std::remove(path.c_str());
}

using FlightrecDeathTest = ::testing::Test;

TEST(FlightrecDeathTest, SegfaultCommitsADumpAndDiesBySignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("flightrec_segv.json");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        set_flightrec_dump_path(path);
        flightrec_init();
        flightrec_set_scenario("flightrec.segv");
        flightrec_record(FrType::kSchedFire, 123456789);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  FlightrecDump dump;
  std::string error;
  ASSERT_TRUE(load_flightrec_dump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, "signal:SIGSEGV");
  EXPECT_EQ(dump.scenario, "flightrec.segv");
  ASSERT_FALSE(dump.records.empty());
  bool found = false;
  for (const FlightrecRecord& r : dump.records) {
    if (r.type == FrType::kSchedFire && r.time == 123456789) found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::obs
