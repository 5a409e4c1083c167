// The intox driver CLI contract: every malformed input dies with one
// one-line stderr diagnostic and exit status 2 — never a silent default —
// and a run with a failed claim or a violated invariant exits 1. The
// exact --set/--config/sink-flag diagnostics are pinned for `intox run`
// and `intox sweep` alike in tests/sweep/cli_parity_test.cpp. Each
// death test forks, so driver_main's printf output stays out of the
// test's own stdout.
#include "scenario/driver.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
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

/// run() with stdout sent to stderr, where a death test's matcher reads
/// it. Only for use inside EXPECT_EXIT.
int run_to_stderr(std::initializer_list<const char*> args) {
  ::dup2(2, 1);
  return run(args);
}

// --threads and --workers take decimal digits only, in range: " -1" must
// not wrap to 2^64 - 1.
TEST(ParseCount, TakesOnlyInRangeDigits) {
  std::size_t n = 7;
  for (const char* bad : {" -1", "-1", " 4", "+4", "4 ", "4x", "0x4", "",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_count("--threads", bad, &n),
              std::string("--threads expects a non-negative integer, got '") +
                  bad + "'")
        << bad;
  }
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(parse_count("--workers", "0", &n), "");
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(parse_count("--workers", "4096", &n), "");
  EXPECT_EQ(n, 4096u);
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

// --trace-out is no sink: it is refused, not parsed and dropped. A run
// is one configuration: only `intox sweep` takes --sweep, and its
// workers get their point as --set flags.
TEST(CliDeathTest, UnknownArgumentExitsTwo) {
  for (const char* flag : {"--bogus", "--trace-out", "--sweep"}) {
    EXPECT_EXIT(std::exit(run({"intox", "run", "blink.fig2", flag, "1"})),
                ::testing::ExitedWithCode(2),
                std::string("intox: unknown argument '") + flag + "'");
  }
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

TEST(CliDeathTest, ValidateUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "validate", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
}

// One verdict line per named scenario, and nothing else on stdout.
TEST(CliDeathTest, ValidatePrintsOneVerdictPerScenario) {
  EXPECT_EXIT(std::exit(run_to_stderr(
                  {"intox", "validate", "quickstart", "debug.crash"})),
              ::testing::ExitedWithCode(0),
              ::testing::MatchesRegex("validate quickstart +OK\n"
                                      "validate debug\\.crash +OK\n"));
}

// A violated invariant fails its scenario's verdict and the exit, and
// validate goes on to the next scenario. The variables are set in the
// death test's child only.
TEST(CliDeathTest, ValidateReportsAViolatedInvariant) {
  EXPECT_EXIT(
      {
        ::setenv("INTOX_DEBUG_CRASH_SEED", "1", 1);
        ::setenv("INTOX_DEBUG_CRASH_MODE", "invariant", 1);
        std::exit(run_to_stderr(
            {"intox", "validate", "debug.crash", "quickstart"}));
      },
      ::testing::ExitedWithCode(1),
      ::testing::MatchesRegex(
          "validate debug\\.crash +FAIL "
          "\\(src/scenario/scenarios_debug\\.cpp:[0-9]+: invariant "
          "violated: debug\\.crash: forced fatal invariant\\)\n"
          "validate quickstart +OK\n"));
}

TEST(CliDeathTest, KnobsUnknownScenarioExitsTwo) {
  EXPECT_EXIT(std::exit(run({"intox", "knobs", "no.such"})),
              ::testing::ExitedWithCode(2),
              "intox: unknown scenario 'no.such'");
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
  EXPECT_EXIT(
      {
        ::setenv("INTOX_DEBUG_CRASH_SEED", "1", 1);
        ::setenv("INTOX_DEBUG_CRASH_MODE", "invariant", 1);
        std::exit(run({"intox", "run", "debug.crash", "--set", "events=1000",
                       "--flightrec-out", dump_path.c_str()}));
      },
      ::testing::ExitedWithCode(1),
      "intox: src/scenario/scenarios_debug\\.cpp:[0-9]+: invariant "
      "violated: debug\\.crash: forced fatal invariant");
  obs::FlightrecDump dump;
  std::string error;
  ASSERT_TRUE(obs::load_flightrec_dump(dump_path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, "invariant");
  EXPECT_EQ(dump.scenario, "debug.crash");
  EXPECT_NE(dump.detail.find("debug.crash: forced fatal invariant"),
            std::string::npos);
  std::remove(dump_path.c_str());
}

// The crash seed is digits only, like a --set value: "1x" and a
// negative number that wraps to 1 name no seed.
TEST(CliDeathTest, MalformedCrashSeedTriggersNothing) {
  for (const char* bad : {"1x", " 1", "-18446744073709551615"}) {
    EXPECT_EXIT(
        {
          ::setenv("INTOX_DEBUG_CRASH_SEED", bad, 1);
          ::setenv("INTOX_DEBUG_CRASH_MODE", "invariant", 1);
          std::exit(
              run({"intox", "run", "debug.crash", "--set", "events=100"}));
        },
        ::testing::ExitedWithCode(0), "")
        << bad;
  }
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

// u64 bounds print as integers: %g rendered 2^24 as 1.67772e+07.
TEST(CliDeathTest, KnobsPrintsU64BoundsExactly) {
  EXPECT_EXIT(std::exit(run_to_stderr({"intox", "knobs", "sketch.pollution"})),
              ::testing::ExitedWithCode(0),
              "cells +u64=4096 in \\[8, 16777216\\] ");
}

}  // namespace
}  // namespace intox::scenario
