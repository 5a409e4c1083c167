// `intox sweep` parses its knob flags with `intox run`'s code. Every
// knob-flag error of the driver's CLI death tests (tests/scenario/
// cli_test.cpp) must die with exit status 2 and the identical one-line
// diagnostic under both commands, and a config `intox run` accepts must
// be one `intox sweep` accepts. Each death test forks, so neither
// command's side effects reach this process.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "scenario/driver.hpp"
#include "sweep/orchestrator.hpp"

namespace intox::sweep {
namespace {

using Main = int (*)(int, char**);

int call(Main entry, const char* command, std::vector<std::string> args) {
  args.insert(args.begin(), {"intox", command});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  return entry(static_cast<int>(args.size()), argv.data());
}

/// A config whose first line is a 5,000-character comment: longer than
/// any fixed line buffer a reader might split it at.
std::string long_comment_config() {
  const std::string path = ::testing::TempDir() + "long_comment.cfg";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fprintf(f, "#%s\nruns=4\n", std::string(4999, 'x').c_str());
  std::fclose(f);
  return path;
}

void expect_exit_two(Main entry, const char* command,
                     const std::vector<std::string>& args,
                     const std::string& diagnostic) {
  EXPECT_EXIT(std::exit(call(entry, command, args)),
              ::testing::ExitedWithCode(2),
              ::testing::Eq("intox: " + diagnostic + "\n"))
      << command;
}

using CliParityDeathTest = ::testing::Test;

TEST(CliParityDeathTest, RunAndSweepRejectKnobFlagsAlike) {
  const std::string conflict =
      "--set and --sweep both name knob 'runs' (a sweep decides that "
      "knob's value)";
  const std::string cfg = long_comment_config();
  struct Case {
    std::vector<std::string> args;  // after the command
    std::string diagnostic;         // the stderr line after "intox: "
  };
  const std::vector<Case> cases = {
      {{"blink.fig2", "--set", "runs"},
       "--set expects key=value, got 'runs'"},
      {{"blink.fig2", "--set"}, "--set requires key=value"},
      {{"blink.fig2", "--set", "nope=3"},
       "unknown knob 'nope' (declared: runs, bots)"},
      {{"blink.fig2", "--set", "runs=abc"},
       "knob 'runs' expects an unsigned integer, got 'abc'"},
      {{"blink.fig2", "--set", "runs=0"},
       "knob 'runs' out of range [1, 100000]: 0"},
      {{"blink.fig2", "--sweep", "runs=1:4"},
       "--sweep expects key=a:b:step, got 'runs=1:4'"},
      {{"blink.fig2", "--sweep", "runs=1:x:1"},
       "--sweep: 'x' in 'runs=1:x:1' is not a number"},
      {{"blink.fig2", "--sweep", "runs=4:1:1"},
       "--sweep: empty range in 'runs=4:1:1' (a > b)"},
      {{"pcc.mitm", "--sweep", "attack=0:1:1"},
       "--sweep: knob 'attack' is bool; only u64/double knobs sweep"},
      {{"blink.fig2", "--set", "runs=4", "--sweep", "runs=1:2:1"},
       conflict},
      {{"blink.fig2", "--sweep", "runs=1:2:1", "--set", "runs=4"},
       conflict},
      {{"blink.fig2", "--sweep", "runs=1:2:1", "--sweep", "runs=3:4:1"},
       "--sweep: knob 'runs' swept twice"},
      {{"blink.fig2", "--config", "/no/such/file.cfg"},
       "--config: cannot open '/no/such/file.cfg'"},
      // Both accept the long comment, so parsing reaches the next flag.
      {{"blink.fig2", "--config", cfg, "--set", "runs"},
       "--set expects key=value, got 'runs'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.diagnostic);
    expect_exit_two(scenario::driver_main, "run", c.args, c.diagnostic);
    expect_exit_two(sweep_main, "sweep", c.args, c.diagnostic);
  }
  std::remove(cfg.c_str());
}

TEST(CliParityDeathTest, SweepRejectsItsOwnBadFlags) {
  expect_exit_two(sweep_main, "sweep", {"blink.fig2", "--workers", "abc"},
                  "--workers expects a non-negative integer, got 'abc'");
  expect_exit_two(sweep_main, "sweep", {"blink.fig2", "--bogus"},
                  "unknown argument '--bogus' (try 'intox sweep --help')");
}

}  // namespace
}  // namespace intox::sweep
