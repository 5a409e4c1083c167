// Machine-readable run reports: the BENCH_<family>.json sink.
//
// Every run opens a BenchSession naming its experiment family. The
// session collects per-sweep perf records, and at teardown serializes
// them together with the full metrics registry into one
// schema-versioned JSON document:
//
//   {
//     "schema": "intox.bench_report.v2",
//     "family": "FIG2",
//     "threads_requested": 0,
//     "sweeps": [ {"sweep": "FIG2", "trials": 12, "threads": 8,
//                  "wall_s": 0.41, "trials_per_s": 29.3,
//                  "shard_wall_s": {"min":..,"max":..,"imbalance":..}} ],
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {...} }
//   }
//
// The destination is the report path the session is built with
// (`intox run --metrics-out FILE`); an empty path writes no file.
// Stdout is never touched, so scenario output stays byte-identical
// across thread counts.
//
// The schema is validated in CI by scripts/check_metrics_schema.py;
// bump kReportSchema when the document shape changes.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace intox::obs {

inline constexpr const char* kReportSchema = "intox.bench_report.v2";
inline constexpr const char* kPointRecordSchema = "intox.point_record.v3";

/// One sweep's timing: what sim::ParallelRunner measures per dispatch
/// (sim::RunReport is this type) and what a run report records per
/// sweep. `name` is empty until the sweep is recorded.
struct SweepPerf {
  std::string name;
  std::size_t trials = 0;
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  /// Per-worker busy time for the sweep's dispatch; empty when the
  /// producer did not measure shards (e.g. hand-accumulated reports).
  std::vector<double> shard_seconds;

  [[nodiscard]] double trials_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
  /// max/mean of shard busy time; 1.0 = perfectly balanced, 0 = unknown.
  [[nodiscard]] double shard_imbalance() const;
};

class BenchSession {
 public:
  /// `threads` is the requested worker count, recorded as
  /// threads_requested (0 = auto); an empty `report_path` writes no
  /// report. Also installs the flight recorder's crash plumbing.
  BenchSession(std::string family, std::size_t threads,
               std::string report_path);
  /// Writes the report if a destination is configured.
  ~BenchSession();

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  /// Prints the legacy one-line perf JSON on stderr (perfbench reads
  /// it) and adds the sweep to the report.
  void record_sweep(SweepPerf sweep);

  /// The full report document (also what the destructor writes).
  [[nodiscard]] std::string to_json() const;
  /// Serializes and writes now; returns false on I/O failure. The
  /// destructor calls it whenever a destination is configured, so an
  /// early write is always overwritten by the final document.
  bool write();

 private:
  std::string family_;
  std::size_t threads_;
  std::string path_;
  mutable std::mutex mu_;
  std::vector<SweepPerf> sweeps_;
};

/// One sweep point's deterministic run record (intox.point_record.v3):
/// what the `intox run ... --point-record FILE` protocol leaves behind
/// for the sweep orchestrator's cache, and what the merge path folds
/// into the combined sweep report. Deliberately excludes every
/// wall-clock quantity (no SweepPerf) and the sweep's axes, so a
/// record's bytes are a pure function of (binary, scenario, knob
/// vector) and a resumed sweep merges byte-identically to an
/// uninterrupted one.
struct PointRecord {
  std::string scenario;
  std::string family;
  /// The *full* resolved knob vector (declaration order), swept and
  /// fixed knobs alike, in canonical render_value form.
  std::vector<std::pair<std::string, std::string>> knobs;
  int exit_code = 0;
  std::string stdout_text;
};

/// Serializes `record` (plus the metrics registry's snapshot, which is
/// placement-invariant: see obs/metrics.hpp) and writes it to `path`
/// via write-temp-then-rename: a worker killed mid-write leaves at most
/// a *.tmp.<pid> turd, never a torn record. Returns false on I/O
/// failure with a one-line stderr warning.
bool write_point_record(const std::string& path, const PointRecord& record);

}  // namespace intox::obs
