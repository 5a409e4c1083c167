// Postmortem rendering of intox.flightrec.v2 crash dumps.
//
// `intox forensics <dump>` loads a dump (written async-signal-safely by
// obs/flightrec at crash time), merges every thread's lanes into one
// (time, tid, seq)-ordered decision timeline, and renders it as a
// human-readable text timeline naming the scenario's last decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"

namespace intox::obs {

/// One decoded flight-recorder record.
struct FlightrecRecord {
  std::uint64_t time = 0;
  FrType type = FrType::kNone;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t tid = 0;
  std::uint64_t seq = 0;  // per-lane order, for stable tie-breaks
};

/// Parsed intox.flightrec.v2 document.
struct FlightrecDump {
  std::uint64_t pid = 0;
  std::string reason;
  std::string detail;
  std::string scenario;
  std::uint64_t dropped_threads = 0;
  std::uint64_t dropped_records = 0;  // summed over all lanes
  std::vector<FlightrecRecord> records;  // sorted by (time, tid, seq)
};

/// Loads and validates a dump file. Returns false with a diagnostic in
/// `*error` on I/O, parse, or schema mismatch.
bool load_flightrec_dump(const std::string& path, FlightrecDump* out,
                         std::string* error);

/// Human-readable decision timeline (multi-line, trailing newline).
std::string render_flightrec_timeline(const FlightrecDump& dump);

}  // namespace intox::obs
