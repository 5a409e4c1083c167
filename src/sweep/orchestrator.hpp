// `intox sweep`: multi-process, resumable sweep orchestration.
//
// `intox run`'s grammar (scenario/driver.hpp parses the knob and sink
// flags for both commands) plus flags of its own:
//
//   intox sweep <scenario> [--set k=v] [--config F] [--sweep k=a:b:step]
//               [--threads N] [--workers N] [--cache-dir DIR] [--out FILE]
//               [--metrics-out FILE] [--flightrec-out FILE]
//
// The orchestrator enumerates the sweep cross product (sweep/point.hpp),
// content-addresses every point (sweep/cache.hpp), and runs N worker
// threads that each claim the next missing point from an atomic cursor
// and fork/exec `intox run <scenario> <the sweep's --set/--config
// flags> --set k1=v1 ... --point-record <cache path>`: a worker gets
// exactly the values its cache key hashes. When every record exists,
// the orchestrator prints each point's `[sweep] k=v ...` line and
// recorded stdout in point order, and --out commits the records merged
// into one intox.sweep_report.v2 document (sweep/merge.hpp).
//
// Resume is free: a second invocation rescans the cache, re-runs only
// the missing points, and produces byte-identical output.
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
