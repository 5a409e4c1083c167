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

#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
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
      "Runs every point of the --sweep cross product as its own\n"
      "'intox run' worker process, which gets the point's values as\n"
      "--set flags. Takes the options of 'intox run' (see 'intox help')\n"
      "except --point-record; --threads defaults to 1, which keeps point\n"
      "records byte-exact, and --metrics-out / --flightrec-out serve the\n"
      "orchestrator. Prints each point's '[sweep] k=v ...' line and its\n"
      "stdout, in point order, and exits with the worst point's exit.\n"
      "Sweep options:\n"
      "  --sweep key=a:b:step   sweep a numeric knob (first flag varies\n"
      "                         slowest)\n"
      "  --workers N            concurrent worker processes (0 = auto)\n"
      "  --cache-dir DIR        point cache (default .intox-sweep-cache)\n"
      "  --out FILE             also write the merged JSON report here\n"
      "\n"
      "Completed points are cached by (binary, scenario, knob vector);\n"
      "rerunning the same command resumes an interrupted sweep and\n"
      "yields byte-identical output.\n");
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
  scenario::KnobFlags flags;             // base knobs
  std::vector<SweepAxis> axes;           // in flag order
  scenario::SinkFlags sinks;             // the orchestrator's own sinks
  std::vector<std::string> child_flags;  // --set/--config, for every worker
  std::size_t workers = 0;               // 0 = auto
  std::string cache_dir;
  std::string out_path;                  // empty = no merged report
};

std::string set_and_swept(const std::string& key) {
  return "--set and --sweep both name knob '" + key +
         "' (a sweep decides that knob's value)";
}

/// Parses the sweep command line. Returns empty on success, else the
/// diagnostic (the caller prints and exits 2).
std::string parse_args(int argc, char** argv, SweepArgs* out) {
  if (argc < 3) return "sweep: missing scenario name";
  if (std::string_view(argv[2]) == "--help" ||
      std::string_view(argv[2]) == "-h") {
    sweep_usage(stdout);
    std::exit(0);
  }
  out->sc = scenario::find_scenario(argv[2]);
  if (out->sc == nullptr) {
    return std::string("unknown scenario '") + argv[2] +
           "' (run 'intox list' to enumerate)";
  }
  out->sc->declare_knobs(out->flags.knobs);
  const auto swept = [out](const std::string& key) {
    return std::any_of(out->axes.begin(), out->axes.end(),
                       [&](const SweepAxis& a) { return a.key == key; });
  };

  std::string err;
  for (int i = 3; i < argc; ++i) {
    const int first = i;
    if (out->flags.consume(argc, argv, &i, &err)) {
      if (!err.empty()) return err;
      if (std::string_view(argv[first]) == "--set" &&
          swept(out->flags.set_keys.back())) {
        return set_and_swept(out->flags.set_keys.back());
      }
      out->child_flags.insert(out->child_flags.end(), argv + first,
                              argv + i + 1);
      continue;
    }
    if (out->sinks.consume(argc, argv, &i, &err)) {
      if (!err.empty()) return err;
      continue;
    }
    const std::string_view arg = argv[i];
    if (arg == "--sweep") {
      if (i + 1 >= argc) return "--sweep requires key=a:b:step";
      SweepAxis axis;
      err = parse_sweep_axis(argv[++i], out->flags.knobs, &axis);
      if (!err.empty()) return err;
      const std::vector<std::string>& set = out->flags.set_keys;
      if (std::find(set.begin(), set.end(), axis.key) != set.end()) {
        return set_and_swept(axis.key);
      }
      if (swept(axis.key)) {
        return "--sweep: knob '" + axis.key + "' swept twice";
      }
      out->axes.push_back(std::move(axis));
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
    } else {
      return "unknown argument '" + std::string(arg) +
             "' (try 'intox sweep --help')";
    }
  }
  if (out->cache_dir.empty()) out->cache_dir = ".intox-sweep-cache";
  return "";
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
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
  const std::vector<SweepAxis>& axes = args.axes;
  const std::size_t total = point_count(axes);
  if (total == 0) {
    return fail("--sweep cross product exceeds " +
                std::to_string(kMaxSweepPoints) + " points");
  }
  const std::string exe = self_exe_path();
  if (exe.empty()) return fail("cannot resolve own binary path");
  // Worker points default to one thread: at --threads 1 the metrics
  // fold in point records is byte-exact, which the resume byte-identity
  // guarantee builds on.
  const std::string threads = std::to_string(args.sinks.threads.value_or(1));

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

  if (!args.sinks.flightrec_out.empty()) {
    obs::set_flightrec_dump_path(args.sinks.flightrec_out);
  }
  obs::BenchSession session{"SWEEP", args.sinks.threads.value_or(0),
                            args.sinks.metrics_out};
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
        for (const auto& [key, value] : point_at(axes, idx)) {
          child.insert(child.end(), {"--set", key + "=" + value});
        }
        child.insert(child.end(),
                     {"--threads", threads, "--point-record",
                      cache.record_path(keys[idx]), "--flightrec-out",
                      cache.dump_path(keys[idx])});
        // A crash dump from an earlier attempt must not survive a clean
        // rerun of the same point.
        std::remove(cache.dump_path(keys[idx]).c_str());
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
        std::string label = "point " + std::to_string(idx);
        const std::string banner = point_banner(point_at(axes, idx));
        if (!banner.empty()) label += " (" + banner + ")";
        std::lock_guard<std::mutex> lock(stderr_mu);
        std::fprintf(stderr, "intox sweep: %s failed%s%s (see %s)\n",
                     label.c_str(), err.empty() ? "" : ": ", err.c_str(),
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
  session.record_sweep(perf);

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
  // The sweep's exit is the worst point exit.
  int exit_code = 0;
  std::string text;
  std::string error;
  const std::string doc = render_merged_report(in, &exit_code, &text, &error);
  if (doc.empty()) return fail(error);
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fflush(stdout);
  if (!args.out_path.empty()) {
    if (!obs::commit_file(args.out_path, doc, &error)) return fail(error);
    std::fprintf(stderr, "intox sweep: merged report -> %s\n",
                 args.out_path.c_str());
  }
  return exit_code;
}

}  // namespace intox::sweep
