#include "obs/report.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "validate/invariant.hpp"

namespace intox::obs {

namespace {

std::atomic<BenchSession*> g_current{nullptr};

const char* invariant_mode_name() {
  switch (validate::invariant_mode()) {
    case validate::InvariantMode::kFatal: return "fatal";
    case validate::InvariantMode::kThrow: return "throw";
    case validate::InvariantMode::kCount: return "count";
  }
  return "unknown";
}

bool is_directory(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Shared invariants section for run reports and point records:
// last_message stays for backward compatibility; recent_messages is the
// bounded ring (kCount mode used to keep only the newest message).
void write_invariants_block(JsonWriter& w) {
  w.key("invariants").begin_object();
  w.key("mode").value(invariant_mode_name());
  w.key("violations").value(validate::invariant_violations());
  w.key("last_message").value(validate::last_invariant_message());
  w.key("recent_messages").begin_array();
  for (const std::string& message : validate::recent_invariant_messages()) {
    w.value(message);
  }
  w.end_array();
  w.end_object();
}

}  // namespace

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

std::size_t parse_threads_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: --threads requires a value\n");
      std::exit(2);
    }
    const char* s = argv[i + 1];
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (s[0] == '\0' || end == s || *end != '\0' || errno == ERANGE ||
        v < 0) {
      std::fprintf(stderr,
                   "error: --threads expects a non-negative integer "
                   "(0 = auto), got '%s'\n", s);
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  }
  return 0;
}

void export_invariant_counters() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry::global().register_external_counter(
        "validate.invariant_violations",
        [] { return validate::invariant_violations(); });
  });
}

BenchSession::BenchSession(int argc, char** argv, std::string family)
    : family_(std::move(family)) {
  export_invariant_counters();
  threads_ = parse_threads_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --metrics-out requires a path\n");
        std::exit(2);
      }
      path_ = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace-out requires a path\n");
        std::exit(2);
      }
      set_trace_path(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--flightrec-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --flightrec-out requires a path\n");
        std::exit(2);
      }
      set_flightrec_dump_path(argv[i + 1]);
    }
  }
  // Every bench/scenario process gets the crash plumbing: a fatal
  // invariant or signal flushes the flight recorder (when a dump path
  // is configured) before the process dies.
  flightrec_init();
  if (path_.empty()) {
    if (const char* env = std::getenv("INTOX_METRICS")) {
      if (env[0] != '\0') {
        std::string p = env;
        if (ends_with(p, ".json") && !is_directory(p)) {
          path_ = std::move(p);
        } else {
          if (!p.empty() && p.back() != '/') p += '/';
          path_ = p + "BENCH_" + family_ + ".json";
        }
      }
    }
  }
  BenchSession* expected = nullptr;
  g_current.compare_exchange_strong(expected, this,
                                    std::memory_order_acq_rel);
}

BenchSession::~BenchSession() {
  // Write whenever a sink is configured, even with zero recorded sweeps:
  // the registry + invariant sections are the point for the benches that
  // never touch a ParallelRunner.
  if (!path_.empty()) write();
  if (trace_enabled()) trace_flush();
  BenchSession* self = this;
  g_current.compare_exchange_strong(self, nullptr,
                                    std::memory_order_acq_rel);
}

BenchSession* BenchSession::current() {
  return g_current.load(std::memory_order_acquire);
}

void BenchSession::apply_point_suffix(std::size_t point_index) {
  if (path_.empty()) return;
  std::string suffix = ".point" + std::to_string(point_index) + ".json";
  if (ends_with(path_, ".json")) {
    path_.replace(path_.size() - 5, 5, suffix);
  } else {
    path_ += suffix;
  }
}

void BenchSession::record_sweep(SweepPerf sweep) {
  std::lock_guard<std::mutex> lock(mu_);
  sweeps_.push_back(std::move(sweep));
}

std::string BenchSession::to_json() const {
  export_invariant_counters();
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
  write_invariants_block(w);
  w.end_object();
  return w.str();
}

bool BenchSession::write() {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write metrics report to %s\n",
                 path_.c_str());
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

bool write_point_record(const std::string& path, const PointRecord& record) {
  export_invariant_counters();
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
  w.key("banner").value(record.banner);
  w.key("exit").value(static_cast<std::int64_t>(record.exit_code));
  w.key("stdout").value(record.stdout_text);
  w.key("metrics").raw(Registry::global().deterministic_json());
  write_invariants_block(w);
  w.end_object();

  // Write-temp-then-rename within the destination directory, so the
  // final path only ever holds a complete record (POSIX rename is atomic
  // on one filesystem). The pid in the temp name keeps two workers
  // racing on the same point from trampling each other's half-written
  // bytes; whichever rename lands last wins with identical content.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write point record to %s\n",
                 tmp.c_str());
    return false;
  }
  const std::string& doc = w.str();
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
            std::fputc('\n', f) != EOF;
  ok = (std::fclose(f) == 0) && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "warning: cannot commit point record to %s\n",
                 path.c_str());
  }
  return ok;
}

void emit_sweep_perf(const SweepPerf& sweep) {
  // The legacy stderr line, kept for transition compatibility — same
  // fields as before, but the sweep name now goes through the escaper.
  std::fprintf(stderr,
               "{\"sweep\":\"%s\",\"trials\":%zu,\"threads\":%zu,"
               "\"wall_s\":%.3f,\"trials_per_s\":%.1f}\n",
               json_escape(sweep.name).c_str(), sweep.trials, sweep.threads,
               sweep.wall_seconds, sweep.trials_per_second());
  if (BenchSession* session = BenchSession::current()) {
    session->record_sweep(sweep);
  }
}

}  // namespace intox::obs
