// The Scenario interface: one declarative experiment = a name, a report
// family, typed knobs, and a run function. Every experiment and
// library example in this reproduction registers itself here (see
// scenarios_*.cpp); the `intox` driver is the only entry point.
#pragma once

#include <string>

#include "scenario/console.hpp"
#include "scenario/knob.hpp"
#include "sim/runner.hpp"

namespace intox::scenario {

/// What a scenario run leaves behind: the process exit code.
struct Table {
  int exit_code = 0;
};

/// Everything a scenario body may touch. The driver owns thread-count
/// resolution and the observability session (--threads / --metrics-out /
/// --trace-out, INTOX_*); the body only sees the resolved runner and the
/// console.
class Ctx {
 public:
  Ctx(const KnobSet& knob_set, Console& console, sim::ParallelRunner& r)
      : knobs(knob_set), out(console), runner(r) {}

  const KnobSet& knobs;
  Console& out;
  sim::ParallelRunner& runner;

  /// Emits the per-sweep perf record for the runner's last dispatch
  /// (legacy stderr JSON + the current BenchSession's run report).
  void perf(const char* sweep) const;
  void perf(const char* sweep, const sim::RunReport& report) const;
};

using DeclareKnobsFn = void (*)(KnobSet&);
using RunFn = Table (*)(Ctx&);

/// One registered experiment. `family` keys the BENCH_<family>.json run
/// report exactly as the pre-registry bench binaries did.
struct Scenario {
  std::string name;
  std::string family;
  std::string description;
  DeclareKnobsFn declare_knobs = nullptr;
  RunFn run = nullptr;
};

}  // namespace intox::scenario
