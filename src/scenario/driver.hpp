// The `intox` driver: one strict command line over every registered
// scenario.
//
//   intox list                      enumerate scenarios
//   intox knobs <scenario>          show a scenario's declared knobs
//   intox run <scenario> [opts]     run one scenario
//   intox validate [scenario...]    quiet run; failed claims/invariants
//   intox help                      usage
//
// driver_main returns the process exit code instead of exiting, so tests
// can call it in-process.
//
// `intox sweep` (sweep/orchestrator.hpp) parses its knob and sink flags
// with KnobFlags, SinkFlags and parse_count, so it accepts and rejects
// them exactly as `intox run` does; it parses --sweep itself.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/knob.hpp"

namespace intox::scenario {

int driver_main(int argc, char** argv);

/// `intox run`'s knob flags: --set key=value and --config FILE, applied
/// in flag order over the declared knobs.
class KnobFlags {
 public:
  /// If argv[*i] is a knob flag, applies it, leaves *i on the flag's
  /// value and returns true with *error set to the one-line diagnostic
  /// (empty on success). Returns false for any other argument.
  bool consume(int argc, char** argv, int* i, std::string* error);

  KnobSet knobs;                      // declare the scenario's knobs first
  std::vector<std::string> set_keys;  // knobs named by --set, in flag order

 private:
  std::string apply(std::string_view flag, const char* value);
};

/// `intox run`'s sink flags, which say where a run's artifacts go:
/// --threads N (0 = auto), --metrics-out FILE and --flightrec-out FILE.
/// The last of a repeated flag wins.
struct SinkFlags {
  /// If argv[*i] is a sink flag, stores its value, leaves *i on the
  /// value and returns true with *error set to the one-line diagnostic
  /// (empty on success). Returns false for any other argument.
  bool consume(int argc, char** argv, int* i, std::string* error);

  std::optional<std::size_t> threads;  // unset without --threads
  std::string metrics_out;             // empty = no run report
  std::string flightrec_out;           // empty = the caller's default
};

/// Parses the value of `flag` as a non-negative decimal integer. Returns
/// empty on success, else the diagnostic.
std::string parse_count(std::string_view flag, const char* text,
                        std::size_t* out);

}  // namespace intox::scenario
