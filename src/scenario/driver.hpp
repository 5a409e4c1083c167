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
#pragma once

namespace intox::scenario {

int driver_main(int argc, char** argv);

}  // namespace intox::scenario
