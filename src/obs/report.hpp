// Machine-readable run reports: the BENCH_<family>.json sink.
//
// Every bench (and example) opens a BenchSession naming its experiment
// family. The session collects per-sweep perf records, and at teardown
// serializes them together with the full metrics registry and the
// validate/ invariant counters into one schema-versioned JSON document:
//
//   {
//     "schema": "intox.bench_report.v1",
//     "family": "FIG2",
//     "threads_requested": 0,
//     "sweeps": [ {"sweep": "FIG2", "trials": 12, "threads": 8,
//                  "wall_s": 0.41, "trials_per_s": 29.3,
//                  "shard_wall_s": {"min":..,"max":..,"imbalance":..}} ],
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {...} },
//     "invariants": { "mode": "count", "violations": 0,
//                     "last_message": "" }
//   }
//
// Output destination (first match wins): the --metrics-out FILE flag,
// else the INTOX_METRICS environment variable (a *.json path, or a
// directory that receives BENCH_<family>.json). Unset means no file is
// written — stdout is never touched, so bench output stays
// byte-identical across thread counts.
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

inline constexpr const char* kReportSchema = "intox.bench_report.v1";
inline constexpr const char* kPointRecordSchema = "intox.point_record.v1";

/// One sweep's perf record — the structured form of the legacy stderr
/// perf line, plus the per-shard timing the runner now measures.
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

/// Strictly parses `--threads N` from a bench command line. Returns N
/// (or 0 when the flag is absent — the runner's "defer to INTOX_THREADS
/// / hardware" sentinel, which an explicit `--threads 0` also selects).
/// A malformed, negative, or missing value prints a diagnostic to
/// stderr and exits with status 2: a typo'd thread count must never
/// silently fall through to the default and taint a perf comparison.
std::size_t parse_threads_arg(int argc, char** argv);

class BenchSession {
 public:
  /// Parses --threads / --metrics-out / --trace-out from argv (pass
  /// argc = 0 for env-only configuration, e.g. examples with their own
  /// positional arguments), resolves the report path, and registers
  /// itself as the process's current session so free-standing perf
  /// emitters can reach it.
  BenchSession(int argc, char** argv, std::string family);
  /// Writes the report (if a destination is configured), flushes the
  /// trace sink, and unregisters.
  ~BenchSession();

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] const std::string& family() const { return family_; }
  [[nodiscard]] const std::string& report_path() const { return path_; }

  void record_sweep(SweepPerf sweep);

  /// Renames the report destination for a single sweep point: `--point N`
  /// runs executing concurrently under one INTOX_METRICS directory must
  /// not clobber each other's BENCH_<family>.json, so point N writes
  /// BENCH_<family>.point<N>.json instead. No-op without a destination.
  void apply_point_suffix(std::size_t point_index);

  /// The full report document (also what the destructor writes).
  [[nodiscard]] std::string to_json() const;
  /// Serializes and writes now; returns false on I/O failure. The
  /// destructor calls it whenever a destination is configured, so an
  /// early write is always overwritten by the final document.
  bool write();

  /// The process's current session, or nullptr outside any bench.
  static BenchSession* current();

 private:
  std::string family_;
  std::string path_;
  std::size_t threads_ = 0;
  mutable std::mutex mu_;
  std::vector<SweepPerf> sweeps_;
};

/// One sweep point's deterministic run record (intox.point_record.v1):
/// what the `intox run ... --point N --point-record FILE` protocol
/// leaves behind for the sweep orchestrator's cache, and what the merge
/// path folds into the combined sweep report. Deliberately excludes
/// every wall-clock quantity (no SweepPerf), so a record's bytes are a
/// pure function of (binary, scenario, knob vector) and a resumed sweep
/// merges byte-identically to an uninterrupted one.
struct PointRecord {
  std::string scenario;
  std::string family;
  /// The *full* resolved knob vector (declaration order), swept and
  /// fixed knobs alike, in canonical render_value form.
  std::vector<std::pair<std::string, std::string>> knobs;
  /// The swept subset, "k=v k2=v2" — the serial path's banner body.
  std::string banner;
  int exit_code = 0;
  std::string stdout_text;
};

/// Serializes `record` (plus the metrics registry and the invariant
/// counters, exactly as BenchSession::to_json embeds them) and writes it
/// to `path` via write-temp-then-rename: a worker killed mid-write
/// leaves at most a *.tmp.<pid> turd, never a torn record. Returns false
/// on I/O failure with a one-line stderr warning.
bool write_point_record(const std::string& path, const PointRecord& record);

/// Emits the legacy one-line perf JSON on stderr (now correctly
/// escaped) and records the sweep into the current BenchSession, if
/// any. This is the routing target of bench::perf().
void emit_sweep_perf(const SweepPerf& sweep);

/// Registers the validate/ invariant counters as external registry
/// counters ("validate.invariant_violations"), so NDEBUG degraded-path
/// hits are readable from every snapshot. Idempotent; BenchSession and
/// snapshot consumers call it automatically.
void export_invariant_counters();

}  // namespace intox::obs
