#include "sweep/orchestrator.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scenario/driver.hpp"
#include "scenario/knob.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sweep/cache.hpp"
#include "sweep/merge.hpp"
#include "sweep/point.hpp"

extern char** environ;

namespace intox::sweep {

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "intox: %s\n", message.c_str());
  return 2;
}

void sweep_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: intox sweep <scenario> [run options] [sweep options]\n"
      "Runs every point of the --sweep cross product in its own\n"
      "'intox run --point' worker process. Takes the options of\n"
      "'intox run' (see 'intox help') except --point and --point-record;\n"
      "--threads defaults to 1, which keeps point records byte-exact,\n"
      "and --metrics-out / --flightrec-out serve the orchestrator.\n"
      "Sweep options:\n"
      "  --workers N            concurrent worker processes (0 = auto)\n"
      "  --cache-dir DIR        point cache (default .intox-sweep-cache,\n"
      "                         or $INTOX_SWEEP_CACHE)\n"
      "  --out FILE             merged report path (default: stdout)\n"
      "  --trace-out FILE       merged Chrome trace: orchestrator plus\n"
      "                         every worker, one lane per pid\n"
      "\n"
      "Completed points are cached by (binary, scenario, knob vector);\n"
      "rerunning the same command resumes an interrupted sweep and\n"
      "yields a byte-identical merged report.\n");
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// The parsed sweep command line: `intox run`'s flags plus its own.
struct SweepArgs {
  const scenario::Scenario* sc = nullptr;
  scenario::KnobFlags flags;             // base knobs and sweep axes
  std::vector<std::string> child_flags;  // forwarded verbatim to workers
  std::size_t workers = 0;               // 0 = auto
  std::string cache_dir;
  std::string out_path;                  // empty = stdout
  std::string trace_out;                 // empty = no session trace
};

/// Parses the sweep command line. Returns empty on success, else the
/// diagnostic (the caller prints and exits 2).
std::string parse_args(int argc, char** argv, SweepArgs* out) {
  if (argc < 3) return "sweep: missing scenario name";
  if (std::string_view(argv[2]) == "--help" ||
      std::string_view(argv[2]) == "-h") {
    sweep_usage(stdout);
    std::exit(0);
  }
  out->sc = scenario::Registry::instance().find(argv[2]);
  if (out->sc == nullptr) {
    return std::string("unknown scenario '") + argv[2] +
           "' (run 'intox list' to enumerate)";
  }
  if (out->sc->declare_knobs != nullptr) {
    out->sc->declare_knobs(out->flags.knobs);
  }

  bool threads_given = false;
  std::string err;
  for (int i = 3; i < argc; ++i) {
    const int first = i;
    if (out->flags.consume(argc, argv, &i, &err)) {
      if (!err.empty()) return err;
      out->child_flags.insert(out->child_flags.end(), argv + first,
                              argv + i + 1);
      continue;
    }
    const std::string_view arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) return "--threads requires a value";
      std::size_t threads = 0;
      err = scenario::parse_count(arg, argv[++i], &threads);
      if (!err.empty()) return err;
      threads_given = true;
      out->child_flags.insert(out->child_flags.end(),
                              {"--threads", argv[i]});
    } else if (arg == "--workers") {
      if (i + 1 >= argc) return "--workers requires a value";
      err = scenario::parse_count(arg, argv[++i], &out->workers);
      if (!err.empty()) return err;
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) return "--cache-dir requires a directory";
      out->cache_dir = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) return "--out requires a file path";
      out->out_path = argv[++i];
    } else if (arg == "--trace-out") {
      // Captured here rather than passed through: every process in the
      // sweep writing the same file would clobber it, so the
      // orchestrator and each worker get private paths that are merged
      // into this one at the end.
      if (i + 1 >= argc) return "--trace-out requires a value";
      out->trace_out = argv[++i];
    } else if (arg == "--metrics-out" || arg == "--flightrec-out") {
      // Orchestrator-side sinks, consumed by BenchSession from argv.
      if (i + 1 >= argc) return std::string(arg) + " requires a value";
      ++i;
    } else {
      return "unknown argument '" + std::string(arg) +
             "' (try 'intox sweep --help')";
    }
  }
  if (!threads_given) {
    // Default worker points to one thread: at --threads 1 the metrics
    // fold in point records is byte-exact, which the resume
    // byte-identity guarantee builds on.
    out->child_flags.insert(out->child_flags.end(), {"--threads", "1"});
  }
  if (out->cache_dir.empty()) {
    if (const char* env = std::getenv("INTOX_SWEEP_CACHE")) {
      if (env[0] != '\0') out->cache_dir = env;
    }
  }
  if (out->cache_dir.empty()) out->cache_dir = ".intox-sweep-cache";
  if (out->trace_out.empty()) {
    // INTOX_TRACE is the env spelling of --trace-out; routing it
    // through the same capture keeps workers (which inherit the
    // environment) from racing each other over one file.
    if (const char* env = std::getenv("INTOX_TRACE")) {
      if (env[0] != '\0') out->trace_out = env;
    }
  }
  return "";
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Commits an intox.sweep_failure.v1 sidecar next to where the failed
/// point's record would live, pointing at the worker's stderr log and —
/// when the worker crashed hard enough to dump — its flight-recorder
/// dump. Best-effort: a failed point already exits the sweep non-zero.
void write_failure_sidecar(const std::string& path,
                           const std::string& scenario, std::size_t point,
                           const std::string& banner,
                           const std::string& log_path,
                           const std::string& flightrec_path) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("intox.sweep_failure.v1");
  w.key("scenario").value(scenario);
  w.key("point").value(static_cast<std::uint64_t>(point));
  w.key("banner").value(banner);
  w.key("log").value(log_path);
  w.key("flightrec");
  if (flightrec_path.empty()) {
    w.raw("null");
  } else {
    w.value(flightrec_path);
  }
  w.end_object();
  const std::string doc = w.str() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

/// Folds the orchestrator's own trace buffer plus every existing
/// per-point worker trace into the requested --trace-out file, one
/// process lane per pid. Runs on every exit path that follows the
/// worker pool, including incomplete sweeps (partial traces are exactly
/// what a postmortem wants).
void finalize_session_trace(const SweepArgs& args, const PointCache& cache,
                            const std::vector<CacheKey>& keys) {
  if (args.trace_out.empty()) return;
  const std::string tmp = args.trace_out + ".orch.tmp.json";
  obs::trace_flush();
  // Disable before BenchSession teardown re-flushes over the merge.
  obs::set_trace_path("");
  std::vector<std::string> paths;
  std::vector<std::string> labels;
  if (file_exists(tmp)) {
    paths.push_back(tmp);
    labels.push_back("orchestrator");
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string p = cache.trace_path(keys[i]);
    if (!file_exists(p)) continue;
    paths.push_back(p);
    labels.push_back("point " + std::to_string(i));
  }
  std::string error;
  if (paths.empty() ||
      !obs::merge_chrome_traces(paths, labels, args.trace_out, &error)) {
    std::fprintf(stderr, "intox sweep: trace merge failed: %s\n",
                 error.empty() ? "no readable trace inputs" : error.c_str());
  } else {
    std::fprintf(stderr, "intox sweep: merged trace -> %s\n",
                 args.trace_out.c_str());
  }
  std::remove(tmp.c_str());
}

/// Runs one worker child to completion, stderr redirected to
/// `log_path`. Returns true when the child could be spawned and waited
/// (the point outcome is judged by the cache afterwards, not here).
bool run_child(const std::vector<std::string>& args,
               const std::string& log_path, std::string* error) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0666);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0].c_str(), &actions, nullptr, argv.data(),
                    environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = std::string("cannot spawn worker: ") + std::strerror(rc);
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      *error = std::string("waitpid failed: ") + std::strerror(errno);
      return false;
    }
  }
  return true;
}

}  // namespace

int sweep_main(int argc, char** argv) {
  SweepArgs args;
  {
    std::string err = parse_args(argc, argv, &args);
    if (!err.empty()) return fail(err);
  }
  const std::vector<SweepAxis>& axes = args.flags.axes;
  const std::size_t total = point_count(axes);
  if (total == 0) {
    return fail("--sweep cross product exceeds " +
                std::to_string(kMaxSweepPoints) + " points");
  }
  const std::string exe = self_exe_path();
  if (exe.empty()) return fail("cannot resolve own binary path");

  // Content-address every point: base knobs + the point's own values.
  const std::uint64_t fp = binary_fingerprint();
  std::vector<CacheKey> keys;
  keys.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    scenario::KnobSet resolved = args.flags.knobs;
    for (const auto& [key, value] : point_at(axes, i)) {
      std::string err = resolved.set(key, value);
      if (!err.empty()) return fail(err);  // range-rejected sweep point
    }
    std::vector<std::pair<std::string, std::string>> vec;
    vec.reserve(resolved.all().size());
    for (const scenario::Knob& k : resolved.all()) {
      vec.emplace_back(k.name, scenario::render_value(k));
    }
    keys.push_back(point_cache_key(fp, args.sc->name, vec));
  }

  PointCache cache{args.cache_dir};
  {
    std::string err = cache.ensure_dir();
    if (!err.empty()) return fail(err);
  }
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < total; ++i) {
    if (!cache.has(keys[i])) pending.push_back(i);
  }

  obs::BenchSession session{argc, argv, "SWEEP"};
  if (!args.trace_out.empty()) {
    // BenchSession pointed the trace layer at the user's file; swap in
    // a private temp so the final merge owns the real path.
    obs::set_trace_path(args.trace_out + ".orch.tmp.json");
  }
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c_total = reg.counter("sweep.points_total");
  obs::Counter& c_cached = reg.counter("sweep.points_cached");
  obs::Counter& c_executed = reg.counter("sweep.points_executed");
  obs::Counter& c_failed = reg.counter("sweep.points_failed");
  c_total.add(total);
  c_cached.add(total - pending.size());

  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> failed{0};
  // Orchestration wall time is perf telemetry (stderr + BENCH_SWEEP
  // report); point *results* are content-addressed and deterministic.
  // intox-analyze: allow(determinism, perf telemetry, not results)
  const auto start = std::chrono::steady_clock::now();

  std::size_t workers = 0;
  if (!pending.empty()) {
    workers = args.workers;
    if (workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      workers = hw > 0 ? hw : 1;
    }
    workers = std::min(workers, pending.size());

    // Work stealing: each worker claims the next unclaimed pending point.
    // Only the cache records completion, so a point claimed by a killed
    // sweep simply stays missing and the next run re-claims it.
    std::atomic<std::size_t> cursor{0};
    std::mutex stderr_mu;
    auto worker = [&] {
      for (;;) {
        const std::size_t k = cursor++;
        if (k >= pending.size()) return;
        const std::size_t idx = pending[k];
        std::vector<std::string> child{exe, "run", args.sc->name};
        child.insert(child.end(), args.child_flags.begin(),
                     args.child_flags.end());
        child.insert(child.end(),
                     {"--point", std::to_string(idx), "--point-record",
                      cache.record_path(keys[idx]), "--flightrec-out",
                      cache.dump_path(keys[idx])});
        if (!args.trace_out.empty()) {
          child.insert(child.end(),
                       {"--trace-out", cache.trace_path(keys[idx])});
        }
        // A crash dump or failure sidecar from an earlier attempt must
        // not survive a clean rerun of the same point.
        std::remove(cache.dump_path(keys[idx]).c_str());
        std::remove(cache.failure_path(keys[idx]).c_str());
        std::string err;
        const bool spawned =
            run_child(child, cache.log_path(keys[idx]), &err);
        if (spawned && cache.has(keys[idx])) {
          executed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        failed.fetch_add(1, std::memory_order_relaxed);
        const std::string dump = cache.dump_path(keys[idx]);
        const bool have_dump = file_exists(dump);
        write_failure_sidecar(cache.failure_path(keys[idx]), args.sc->name,
                              idx, err, cache.log_path(keys[idx]),
                              have_dump ? dump : std::string{});
        std::lock_guard<std::mutex> lock(stderr_mu);
        std::fprintf(stderr, "intox sweep: point %zu failed%s%s (see %s)\n",
                     idx, err.empty() ? "" : ": ", err.c_str(),
                     cache.log_path(keys[idx]).c_str());
        if (have_dump) {
          std::fprintf(stderr,
                       "intox sweep: point %zu flight recorder dump: %s "
                       "(render with 'intox forensics')\n",
                       idx, dump.c_str());
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  c_executed.add(executed.load(std::memory_order_relaxed));
  c_failed.add(failed.load(std::memory_order_relaxed));

  const double wall = std::chrono::duration<double>(
      // intox-analyze: allow(determinism, orchestration perf telemetry)
      std::chrono::steady_clock::now() - start).count();
  obs::SweepPerf perf;
  perf.name = "sweep.orchestrator";
  perf.trials = executed.load(std::memory_order_relaxed);
  perf.threads = workers;
  perf.wall_seconds = wall;
  obs::emit_sweep_perf(perf);

  std::size_t missing = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (!cache.has(keys[i])) ++missing;
  }
  std::fprintf(stderr,
               "intox sweep: %s: %zu points (%zu cached, %zu executed, "
               "%zu failed)\n",
               args.sc->name.c_str(), total, total - pending.size(),
               executed.load(std::memory_order_relaxed),
               failed.load(std::memory_order_relaxed));
  finalize_session_trace(args, cache, keys);
  if (missing > 0) {
    std::fprintf(stderr,
                 "intox sweep: %zu of %zu points incomplete; rerun the "
                 "same command to resume\n",
                 missing, total);
    return 1;
  }

  MergeInput in;
  in.scenario = args.sc->name;
  in.family = args.sc->family;
  in.axes = axes;
  in.record_paths.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    in.record_paths.push_back(cache.record_path(keys[i]));
  }
  // The sweep's exit is the worst point exit, matching the serial
  // `intox run --sweep` contract.
  int exit_code = 0;
  std::string error;
  const std::string doc = render_merged_report(in, &exit_code, &error);
  if (doc.empty()) return fail(error);
  {
    std::string err = commit_report(args.out_path, doc);
    if (!err.empty()) return fail(err);
  }
  if (!args.out_path.empty()) {
    std::fprintf(stderr, "intox sweep: merged report -> %s\n",
                 args.out_path.c_str());
  }
  return exit_code;
}

}  // namespace intox::sweep
