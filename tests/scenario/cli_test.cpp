// The intox driver CLI contract: every malformed input dies with one
// one-line stderr diagnostic and exit status 2 — never a silent default —
// and a run with a failed claim or a violated invariant exits 1. Each
// death test forks, so driver_main's printf output stays out of the
// test's own stdout.
#include "scenario/driver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/forensics.hpp"

namespace intox::scenario {
namespace {

int run(std::initializer_list<const char*> args) {
  std::vector<char*> argv;
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  argv.push_back(nullptr);
  return driver_main(static_cast<int>(args.size()), argv.data());
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, UnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

TEST(CliDeathTest, UnknownCommandExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "frobnicate"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown command 'frobnicate'");
}

TEST(CliDeathTest, NoArgumentsPrintsUsageAndExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox"})), ::testing::ExitedWithCode(2),
              "usage: intox");
}

TEST(CliDeathTest, MalformedSetExitsTwo) {
  EXPECT_EXIT(
      std::exit(run({"intox", "run", "blink.fig2", "--set", "runs"})),
      ::testing::ExitedWithCode(2), "intox: --set expects key=value");
}

TEST(CliDeathTest, DanglingSetExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--set"})),
              ::testing::ExitedWithCode(2),
              "intox: --set requires key=value");
}

TEST(CliDeathTest, UnknownKnobExitsTwo) {
  EXPECT_EXIT(
      std::exit(run({"intox", "run", "blink.fig2", "--set", "nope=3"})),
      ::testing::ExitedWithCode(2), "intox: unknown knob 'nope'");
}

TEST(CliDeathTest, NonNumericKnobValueExitsTwo) {
  EXPECT_EXIT(
      std::exit(run({"intox", "run", "blink.fig2", "--set", "runs=abc"})),
      ::testing::ExitedWithCode(2),
      "intox: knob 'runs' expects an unsigned integer");
}

TEST(CliDeathTest, OutOfRangeKnobExitsTwo) {
  EXPECT_EXIT(
      std::exit(run({"intox", "run", "blink.fig2", "--set", "runs=0"})),
      ::testing::ExitedWithCode(2), "intox: knob 'runs' out of range");
}

TEST(CliDeathTest, MalformedSweepExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:4"})),
              ::testing::ExitedWithCode(2),
              "intox: --sweep expects key=a:b:step");
}

TEST(CliDeathTest, NonNumericSweepExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:x:1"})),
              ::testing::ExitedWithCode(2), "is not a number");
}

TEST(CliDeathTest, EmptySweepRangeExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=4:1:1"})),
              ::testing::ExitedWithCode(2), "intox: --sweep: empty range");
}

TEST(CliDeathTest, SweepOnStringKnobExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "debug.crash", "--sweep",
                             "crash=0:1:1"})),
              ::testing::ExitedWithCode(2),
              "knob 'crash' is string; only u64/double knobs sweep");
}

// --trace-out is no sink: it is refused, not parsed and dropped.
TEST(CliDeathTest, UnknownArgumentExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--bogus"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--bogus'");
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--trace-out",
                             "x"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown argument '--trace-out'");
}

TEST(CliDeathTest, ForensicsUnknownArgumentExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "forensics", "dump.json", "--bogus"})),
              ::testing::ExitedWithCode(2),
              "intox: forensics: unknown argument '--bogus'");
  EXPECT_EXIT(std::exit(run({"intox", "forensics", "dump.json",
                             "--trace-out", "x"})),
              ::testing::ExitedWithCode(2),
              "intox: forensics: unknown argument '--trace-out'");
}

TEST(CliDeathTest, MissingConfigFileExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--config",
                             "/no/such/file.cfg"})),
              ::testing::ExitedWithCode(2),
              "intox: --config: cannot open");
}

TEST(CliDeathTest, MalformedThreadsExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--threads",
                             "lots"})),
              ::testing::ExitedWithCode(2), "--threads expects");
}

TEST(CliDeathTest, ValidateUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "validate", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

TEST(CliDeathTest, KnobsUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "knobs", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

// --set and --sweep fighting over one knob used to resolve silently in
// favor of the sweep; now it is a config error, in either flag order.
TEST(CliDeathTest, SetThenSweepSameKnobExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--set",
                             "runs=4", "--sweep", "runs=1:2:1"})),
              ::testing::ExitedWithCode(2),
              "intox: --set and --sweep both name knob 'runs'");
}

TEST(CliDeathTest, SweepThenSetSameKnobExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:2:1", "--set", "runs=4"})),
              ::testing::ExitedWithCode(2),
              "intox: --set and --sweep both name knob 'runs'");
}

TEST(CliDeathTest, DuplicateSweepKnobExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:2:1", "--sweep", "runs=3:4:1"})),
              ::testing::ExitedWithCode(2),
              "intox: --sweep: knob 'runs' swept twice");
}

TEST(CliDeathTest, PointOutOfRangeExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--sweep",
                             "runs=1:4:1", "--point", "4"})),
              ::testing::ExitedWithCode(2),
              "intox: --point 4 out of range \\(sweep has 4 points\\)");
}

TEST(CliDeathTest, PointWithoutSweepOnlyAllowsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--point",
                             "1"})),
              ::testing::ExitedWithCode(2),
              "intox: --point 1 out of range \\(sweep has 1 point\\)");
}

TEST(CliDeathTest, MalformedPointExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", "--point",
                             "two"})),
              ::testing::ExitedWithCode(2),
              "intox: --point expects a non-negative integer");
}

TEST(CliDeathTest, PointRecordWithoutPointExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2",
                             "--point-record", "/tmp/r.json"})),
              ::testing::ExitedWithCode(2),
              "intox: --point-record requires --point");
}

// A --point run writes its report where --metrics-out says, with no
// per-point suffix.
TEST(CliDeathTest, PointRunWritesTheMetricsOutPath) {
  const std::string report = ::testing::TempDir() + "r.json";
  const std::string suffixed = ::testing::TempDir() + "r.point0.json";
  std::remove(report.c_str());
  std::remove(suffixed.c_str());
  EXPECT_EXIT(std::exit(run({"intox", "run", "quickstart", "--point", "0",
                             "--metrics-out", report.c_str()})),
              ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(std::ifstream(report).good());
  EXPECT_FALSE(std::ifstream(suffixed).good());
  std::remove(report.c_str());
  std::remove(suffixed.c_str());
}

// A failed claim fails the run. With a 60 s reset period, Part 1's
// closed form needs more than 8% malicious traffic at t_R = 10 s.
TEST(CliDeathTest, FailedClaimExitsOne) {
  EXPECT_EXIT(std::exit(run({"intox", "run", "blink.tr-sweep", "--set",
                             "budget_s=60"})),
              ::testing::ExitedWithCode(1), "");
}

// A violated invariant fails the run: one stderr line, exit 1, and a
// flight-recorder dump that names the violation.
TEST(CliDeathTest, InvariantViolationExitsOneWithADump) {
  const std::string dump_path =
      ::testing::TempDir() + "cli_invariant.flightrec.json";
  std::remove(dump_path.c_str());
  EXPECT_EXIT(std::exit(run({"intox", "run", "debug.crash", "--set",
                             "events=1000", "--set", "crash=invariant",
                             "--flightrec-out", dump_path.c_str()})),
              ::testing::ExitedWithCode(1),
              "intox: .*invariant violated: debug\\.crash: forced fatal "
              "invariant");
  obs::FlightrecDump dump;
  std::string error;
  ASSERT_TRUE(obs::load_flightrec_dump(dump_path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, "invariant");
  EXPECT_EQ(dump.scenario, "debug.crash");
  EXPECT_NE(dump.detail.find("debug.crash: forced fatal invariant"),
            std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(CliDeathTest, HelpExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "help"})),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, ListExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "list"})),
              ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, KnobsExitsZero) {
  EXPECT_EXIT(std::exit(run({"intox", "knobs", "blink.fig2"})),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace intox::scenario
