// The `intox` driver: one strict command line over every registered
// scenario.
//
//   intox list                      enumerate scenarios
//   intox knobs <scenario>          show a scenario's declared knobs
//   intox run <scenario> [opts]     run one scenario
//   intox validate [scenario...]    throw-mode invariant sweep, quiet
//   intox help                      usage
//
// driver_main returns the process exit code instead of exiting so tests
// can call it in-process; the only path that terminates directly is
// obs::parse_threads_arg's strict --threads handling, which exits 2.
//
// `intox sweep` (sweep/orchestrator.hpp) parses its command line with
// KnobFlags and parse_count, so it accepts and rejects exactly what
// `intox run` does.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/knob.hpp"
#include "sweep/point.hpp"

namespace intox::scenario {

int driver_main(int argc, char** argv);

/// `intox run`'s knob flags: --set key=value, --sweep key=a:b:step and
/// --config FILE, applied in flag order over the declared knobs. A knob
/// is either set or swept, and swept at most once.
class KnobFlags {
 public:
  /// If argv[*i] is a knob flag, applies it, leaves *i on the flag's
  /// value and returns true with *error set to the one-line diagnostic
  /// (empty on success). Returns false for any other argument.
  bool consume(int argc, char** argv, int* i, std::string* error);

  KnobSet knobs;                       // declare the scenario's knobs first
  std::vector<sweep::SweepAxis> axes;  // in flag order

 private:
  std::string apply(std::string_view flag, const char* value);

  std::vector<std::string> set_keys_;  // knobs named by --set
};

/// Parses the value of `flag` as a non-negative decimal integer. Returns
/// empty on success, else the diagnostic.
std::string parse_count(std::string_view flag, const char* text,
                        std::size_t* out);

}  // namespace intox::scenario
