// `intox sweep` parses its knob and sink flags with `intox run`'s code.
// Every --set/--config error and every sink-flag error must die with
// exit status 2 and the identical one-line diagnostic under both
// commands, and a config `intox run` accepts must be one `intox sweep`
// accepts. Only `intox sweep` takes --sweep; its diagnostics are pinned
// here too. Each death test forks, so neither command's side effects
// reach this process.
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

struct Case {
  std::vector<std::string> args;  // after the command
  std::string diagnostic;         // the stderr line after "intox: "
};

using CliParityDeathTest = ::testing::Test;

TEST(CliParityDeathTest, RunAndSweepRejectKnobFlagsAlike) {
  const std::string cfg = long_comment_config();
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

TEST(CliParityDeathTest, RunAndSweepRejectSinkFlagsAlike) {
  const std::vector<std::vector<std::string>> bad_threads = {
      {"blink.fig2", "--threads", "abc"}, {"blink.fig2", "--threads", "-1"}};
  for (const std::vector<std::string>& args : bad_threads) {
    const std::string diagnostic =
        "--threads expects a non-negative integer, got '" + args[2] + "'";
    expect_exit_two(scenario::driver_main, "run", args, diagnostic);
    expect_exit_two(sweep_main, "sweep", args, diagnostic);
  }
  for (const char* flag : {"--threads", "--metrics-out", "--flightrec-out"}) {
    const std::string diagnostic = std::string(flag) + " requires a value";
    expect_exit_two(scenario::driver_main, "run", {"blink.fig2", flag},
                    diagnostic);
    expect_exit_two(sweep_main, "sweep", {"blink.fig2", flag}, diagnostic);
  }
}

TEST(CliParityDeathTest, SweepRejectsItsOwnBadFlags) {
  const std::string conflict =
      "--set and --sweep both name knob 'runs' (a sweep decides that "
      "knob's value)";
  const std::vector<Case> cases = {
      {{"blink.fig2", "--sweep", "runs=1:4"},
       "--sweep expects key=a:b:step, got 'runs=1:4'"},
      {{"blink.fig2", "--sweep", "runs=1:x:1"},
       "--sweep: 'x' in 'runs=1:x:1' is not a finite number"},
      {{"blink.fig2", "--sweep", "runs=4:1:1"},
       "--sweep: empty range in 'runs=4:1:1' (a > b)"},
      {{"debug.crash", "--sweep", "crash=0:1:1"},
       "--sweep: unknown knob 'crash'"},
      {{"blink.fig2", "--set", "runs=4", "--sweep", "runs=1:2:1"},
       conflict},
      {{"blink.fig2", "--sweep", "runs=1:2:1", "--set", "runs=4"},
       conflict},
      {{"blink.fig2", "--sweep", "runs=1:2:1", "--sweep", "runs=3:4:1"},
       "--sweep: knob 'runs' swept twice"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.diagnostic);
    expect_exit_two(sweep_main, "sweep", c.args, c.diagnostic);
  }
  expect_exit_two(sweep_main, "sweep", {"blink.fig2", "--workers", "abc"},
                  "--workers expects a non-negative integer, got 'abc'");
  for (const char* flag : {"--bogus", "--trace-out"}) {
    expect_exit_two(sweep_main, "sweep", {"blink.fig2", flag, "x"},
                    "unknown argument '" + std::string(flag) +
                        "' (try 'intox sweep --help')");
  }
}

}  // namespace
}  // namespace intox::sweep
