// The Scenario interface: one declarative experiment = a name, a report
// family, typed knobs, and a run function. Every experiment and
// library example in this reproduction is one Scenario constant in a
// scenarios_*.cpp file, listed in registry.cpp's table; the `intox`
// driver is the only entry point.
#pragma once

#include <string>

#include "obs/report.hpp"
#include "scenario/console.hpp"
#include "scenario/knob.hpp"
#include "sim/runner.hpp"

namespace intox::scenario {

/// Everything a scenario body may touch. The driver parses the run
/// flags and owns the runner and the run's BenchSession; the body sees
/// them through this context.
class Ctx {
 public:
  Ctx(const KnobSet& knob_set, Console& console, sim::ParallelRunner& r,
      obs::BenchSession& s)
      : knobs(knob_set), out(console), runner(r), session_(s) {}

  const KnobSet& knobs;
  Console& out;
  sim::ParallelRunner& runner;

  /// Records the runner's last dispatch (or `report`) into the run's
  /// BenchSession under the name `sweep`.
  void perf(const char* sweep) const;
  void perf(const char* sweep, sim::RunReport report) const;

 private:
  obs::BenchSession& session_;
};

using DeclareKnobsFn = void (*)(KnobSet&);
/// Prints the scenario's tables and claims through `Ctx::out`; the
/// driver's exit status is 1 when any claim fails.
using RunFn = void (*)(Ctx&);

/// One experiment. `family` keys the BENCH_<family>.json run report
/// exactly as the pre-registry bench binaries did.
struct Scenario {
  std::string name;
  std::string family;
  std::string description;
  DeclareKnobsFn declare_knobs = nullptr;
  RunFn run = nullptr;
};

}  // namespace intox::scenario
