// `intox sweep`: multi-process, resumable sweep orchestration.
//
// `intox run`'s grammar (scenario/driver.hpp parses the knob flags for
// both commands) plus flags of its own:
//
//   intox sweep <scenario> [--set k=v] [--config F] [--sweep k=a:b:step]
//               [--threads N] [--workers N] [--cache-dir DIR] [--out FILE]
//               [--metrics-out FILE] [--trace-out FILE]
//               [--flightrec-out FILE]
//
// The orchestrator enumerates the sweep cross product (sweep/point.hpp),
// content-addresses every point (sweep/cache.hpp), and runs N worker
// threads that each claim the next missing point from an atomic cursor
// and fork/exec `intox run <scenario> ... --point i --point-record
// <cache path>`. When every record exists, the per-point records are
// merged — in point order — into one intox.sweep_report.v1 document
// (sweep/merge.hpp).
//
// Resume is free: a second invocation rescans the cache, re-runs only
// the missing points, and produces a byte-identical merged report.
// Cache-hit accounting goes to stderr and the obs registry
// (sweep.points_total / _cached / _executed / _failed), never into the
// report itself.
#pragma once

namespace intox::sweep {

/// Entry point for the `sweep` subcommand; argv[1] == "sweep". Returns
/// the process exit status: max over point exits when complete, 1 when
/// points are missing after the workers drain, 2 on a CLI error.
int sweep_main(int argc, char** argv);

}  // namespace intox::sweep
