#include "obs/report.hpp"

#include <cstdio>

#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace intox::obs {

double SweepPerf::shard_imbalance() const {
  if (shard_seconds.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (double s : shard_seconds) {
    sum += s;
    if (s > max) max = s;
  }
  const double mean = sum / static_cast<double>(shard_seconds.size());
  return mean > 0.0 ? max / mean : 0.0;
}

BenchSession::BenchSession(std::string family, std::size_t threads,
                           std::string report_path)
    : family_(std::move(family)),
      threads_(threads),
      path_(std::move(report_path)) {
  // Every bench/scenario process gets the crash plumbing: a fatal
  // signal flushes the flight recorder (when a dump path is
  // configured) before the process dies.
  flightrec_init();
}

BenchSession::~BenchSession() {
  // Write whenever a sink is configured, even with zero recorded sweeps:
  // the registry section is the point for the benches that never touch
  // a ParallelRunner.
  if (!path_.empty()) write();
}

void BenchSession::record_sweep(SweepPerf sweep) {
  // The legacy stderr line: same fields as ever, the name escaped.
  std::fprintf(stderr,
               "{\"sweep\":\"%s\",\"trials\":%zu,\"threads\":%zu,"
               "\"wall_s\":%.3f,\"trials_per_s\":%.1f}\n",
               json_escape(sweep.name).c_str(), sweep.trials, sweep.threads,
               sweep.wall_seconds, sweep.trials_per_second());
  std::lock_guard<std::mutex> lock(mu_);
  sweeps_.push_back(std::move(sweep));
}

std::string BenchSession::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kReportSchema);
  w.key("family").value(family_);
  w.key("threads_requested").value(static_cast<std::uint64_t>(threads_));
  w.key("sweeps").begin_array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SweepPerf& s : sweeps_) {
      w.begin_object();
      w.key("sweep").value(s.name);
      w.key("trials").value(static_cast<std::uint64_t>(s.trials));
      w.key("threads").value(static_cast<std::uint64_t>(s.threads));
      w.key("wall_s").value(s.wall_seconds);
      w.key("trials_per_s").value(s.trials_per_second());
      if (!s.shard_seconds.empty()) {
        double min = s.shard_seconds.front(), max = min;
        for (double x : s.shard_seconds) {
          if (x < min) min = x;
          if (x > max) max = x;
        }
        w.key("shard_wall_s").begin_object();
        w.key("min").value(min);
        w.key("max").value(max);
        w.key("imbalance").value(s.shard_imbalance());
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.key("metrics").raw(Registry::global().json());
  w.end_object();
  return w.str();
}

bool BenchSession::write() {
  std::string error;
  if (write_file(path_, to_json() + "\n", &error)) return true;
  std::fprintf(stderr, "warning: metrics report: %s\n", error.c_str());
  return false;
}

bool write_point_record(const std::string& path, const PointRecord& record) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kPointRecordSchema);
  w.key("scenario").value(record.scenario);
  w.key("family").value(record.family);
  w.key("knobs").begin_object();
  for (const auto& [key, value] : record.knobs) {
    w.key(key).value(value);
  }
  w.end_object();
  w.key("exit").value(static_cast<std::int64_t>(record.exit_code));
  w.key("stdout").value(record.stdout_text);
  w.key("metrics").raw(Registry::global().json());
  w.end_object();

  // Committed by rename: a record's presence means the point completed.
  std::string error;
  if (commit_file(path, w.str() + "\n", &error)) return true;
  std::fprintf(stderr, "warning: point record: %s\n", error.c_str());
  return false;
}

}  // namespace intox::obs
