#include "scenario/driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/forensics.hpp"
#include "obs/report.hpp"
#include "scenario/console.hpp"
#include "scenario/knob.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/runner.hpp"
#include "sweep/point.hpp"
#include "validate/invariant.hpp"

namespace intox::scenario {
namespace {

/// One-line stderr diagnostic + exit status 2, the same contract
/// obs::parse_threads_arg established for --threads.
int fail(const std::string& message) {
  std::fprintf(stderr, "intox: %s\n", message.c_str());
  return 2;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: intox <command> [args]\n"
               "  list                       enumerate registered scenarios\n"
               "  knobs <scenario>           show a scenario's knobs\n"
               "  run <scenario> [options]   run one scenario\n"
               "      --set key=value        override a knob\n"
               "      --sweep key=a:b:step   sweep a numeric knob "
               "(cross-product)\n"
               "      --config FILE          key=value lines, '#' comments\n"
               "      --threads N            worker threads (0 = auto)\n"
               "      --metrics-out FILE     write the BENCH_<family>.json "
               "report here\n"
               "      --trace-out FILE       write trace spans here\n"
               "      --flightrec-out FILE   write the flight-recorder "
               "crash dump here\n"
               "      --point N              run only point N of the sweep "
               "cross-product\n"
               "      --point-record FILE    with --point: write a point "
               "record instead of stdout\n"
               "  sweep <scenario> [options] run a sweep across worker "
               "processes\n"
               "      (run + --workers N, --cache-dir DIR, --out FILE; see "
               "'intox sweep --help')\n"
               "  forensics <dump> [--trace-out FILE]\n"
               "                             render a flight-recorder crash "
               "dump as a timeline\n"
               "                             (and optionally a Chrome-trace "
               "file)\n"
               "  validate [scenario...]     rerun with throw-mode "
               "invariants, console off\n"
               "  help                       this text\n");
}

const Scenario* find_or_diagnose(const char* name, std::string* error) {
  const Scenario* sc = Registry::instance().find(name);
  if (sc == nullptr) {
    *error = std::string("unknown scenario '") + name +
             "' (run 'intox list' to enumerate)";
  }
  return sc;
}

int cmd_list() {
  for (const Scenario* sc : Registry::instance().all()) {
    std::printf("%-22s %-12s %s\n", sc->name.c_str(), sc->family.c_str(),
                sc->description.c_str());
  }
  return 0;
}

int cmd_knobs(int argc, char** argv) {
  if (argc < 3) return fail("knobs: missing scenario name");
  std::string error;
  const Scenario* sc = find_or_diagnose(argv[2], &error);
  if (sc == nullptr) return fail(error);
  KnobSet knobs;
  if (sc->declare_knobs != nullptr) sc->declare_knobs(knobs);
  std::printf("%s (%s) — %s\n", sc->name.c_str(), sc->family.c_str(),
              sc->description.c_str());
  for (const Knob& k : knobs.all()) {
    std::string spec = std::string(to_string(k.kind)) + "=" + k.default_text;
    if (k.has_range) {
      char range[64];
      std::snprintf(range, sizeof range, " in [%g, %g]", k.min_value,
                    k.max_value);
      spec += range;
    }
    std::printf("  %-18s %-28s %s\n", k.name.c_str(), spec.c_str(),
                k.help.c_str());
  }
  return 0;
}

/// Applies a key=value config file; returns empty on success, else the
/// diagnostic to print.
std::string apply_config(const std::string& path, KnobSet* knobs) {
  std::ifstream in{path};
  if (!in) return "--config: cannot open '" + path + "'";
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    std::string body = line.substr(begin, end - begin + 1);
    if (body.empty() || body[0] == '#') continue;
    const auto eq = body.find('=');
    if (eq == std::string::npos || eq == 0) {
      return path + ":" + std::to_string(lineno) +
             ": expected key=value, got '" + body + "'";
    }
    std::string err = knobs->set(body.substr(0, eq), body.substr(eq + 1));
    if (!err.empty()) {
      return path + ":" + std::to_string(lineno) + ": " + err;
    }
  }
  return "";
}

int run_once(const Scenario& sc, const KnobSet& knobs, Console* console,
             sim::ParallelRunner* runner) {
  Ctx ctx{knobs, *console, *runner};
  Table table = sc.run(ctx);
  return table.exit_code;
}

/// Redirects fd 1 into a tmpfile between begin() and end(), so a
/// `--point-record` worker can embed the scenario's table output in its
/// record instead of interleaving it with the orchestrator's own
/// stdout. Scenarios print through stdio, so an fd-level swap catches
/// everything, including child-library printf.
class StdoutCapture {
 public:
  ~StdoutCapture() {
    if (active_) end();
  }

  bool begin() {
    std::fflush(stdout);
    saved_fd_ = ::dup(1);
    tmp_ = std::tmpfile();
    if (saved_fd_ < 0 || tmp_ == nullptr ||
        ::dup2(::fileno(tmp_), 1) < 0) {
      if (saved_fd_ >= 0) ::close(saved_fd_);
      if (tmp_ != nullptr) std::fclose(tmp_);
      saved_fd_ = -1;
      tmp_ = nullptr;
      return false;
    }
    active_ = true;
    return true;
  }

  std::string end() {
    if (!active_) return "";
    std::fflush(stdout);
    ::dup2(saved_fd_, 1);
    ::close(saved_fd_);
    active_ = false;
    std::string text;
    std::rewind(tmp_);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, tmp_)) > 0) {
      text.append(buf, n);
    }
    std::fclose(tmp_);
    tmp_ = nullptr;
    return text;
  }

 private:
  int saved_fd_ = -1;
  std::FILE* tmp_ = nullptr;
  bool active_ = false;
};

int cmd_run(int argc, char** argv) {
  if (argc < 3) return fail("run: missing scenario name");
  std::string error;
  const Scenario* sc = find_or_diagnose(argv[2], &error);
  if (sc == nullptr) return fail(error);

  KnobFlags flags;
  if (sc->declare_knobs != nullptr) sc->declare_knobs(flags.knobs);
  KnobSet& knobs = flags.knobs;
  const std::vector<sweep::SweepAxis>& axes = flags.axes;

  std::optional<std::size_t> point;
  std::string point_record_path;
  for (int i = 3; i < argc; ++i) {
    if (flags.consume(argc, argv, &i, &error)) {
      if (!error.empty()) return fail(error);
      continue;
    }
    const std::string_view arg = argv[i];
    if (arg == "--point") {
      if (i + 1 >= argc) return fail("--point requires an index");
      std::size_t index = 0;
      error = parse_count(arg, argv[++i], &index);
      if (!error.empty()) return fail(error);
      point = index;
    } else if (arg == "--point-record") {
      if (i + 1 >= argc) return fail("--point-record requires a file path");
      point_record_path = argv[++i];
    } else if (arg == "--threads" || arg == "--metrics-out" ||
               arg == "--trace-out" || arg == "--flightrec-out") {
      // Value validated and consumed by BenchSession from the original
      // argv; here we only insist the value exists.
      if (i + 1 >= argc) {
        return fail(std::string(arg) + " requires a value");
      }
      ++i;
    } else {
      return fail("unknown argument '" + std::string(arg) +
                  "' (try 'intox help')");
    }
  }

  if (!point_record_path.empty() && !point.has_value()) {
    return fail("--point-record requires --point");
  }
  const std::size_t total = sweep::point_count(axes);
  if (total == 0) {
    return fail("--sweep cross product exceeds " +
                std::to_string(sweep::kMaxSweepPoints) + " points");
  }
  if (point.has_value() && *point >= total) {
    return fail("--point " + std::to_string(*point) +
                " out of range (sweep has " + std::to_string(total) +
                (total == 1 ? " point)" : " points)"));
  }

  obs::flightrec_set_scenario(sc->name.c_str());
  obs::BenchSession session{argc, argv, sc->family};
  if (point.has_value()) session.apply_point_suffix(*point);
  sim::ParallelRunner runner{session.threads()};
  Console console;

  if (point.has_value()) {
    // Worker mode: execute exactly one point of the product. With
    // --point-record, stdout goes into the record file instead of the
    // terminal — the orchestrator merges records in point order, so the
    // concatenated output is byte-identical to the serial sweep.
    const sweep::Point pt = sweep::point_at(axes, *point);
    for (const auto& [key, value] : pt) {
      std::string err = knobs.set(key, value);
      if (!err.empty()) return fail(err);  // range-rejected sweep point
    }
    StdoutCapture capture;
    const bool recording = !point_record_path.empty();
    if (recording && !capture.begin()) {
      return fail("--point-record: cannot capture stdout");
    }
    if (!axes.empty()) {
      std::printf("[sweep] %s\n", sweep::point_banner(pt).c_str());
    }
    const int exit_code = run_once(*sc, knobs, &console, &runner);
    if (recording) {
      obs::PointRecord record;
      record.scenario = sc->name;
      record.family = sc->family;
      for (const Knob& k : knobs.all()) {
        record.knobs.emplace_back(k.name, render_value(k));
      }
      record.banner = sweep::point_banner(pt);
      record.exit_code = exit_code;
      record.stdout_text = capture.end();
      if (!obs::write_point_record(point_record_path, record)) return 1;
    }
    return exit_code;
  }

  if (axes.empty()) return run_once(*sc, knobs, &console, &runner);

  // Cross-product in flag order; first --sweep varies slowest.
  int exit_code = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const sweep::Point pt = sweep::point_at(axes, i);
    for (const auto& [key, value] : pt) {
      std::string err = knobs.set(key, value);
      if (!err.empty()) return fail(err);  // range-rejected sweep point
    }
    std::printf("[sweep] %s\n", sweep::point_banner(pt).c_str());
    exit_code = std::max(exit_code, run_once(*sc, knobs, &console, &runner));
  }
  return exit_code;
}

int cmd_validate(int argc, char** argv) {
  std::vector<const Scenario*> targets;
  if (argc > 2) {
    for (int i = 2; i < argc; ++i) {
      std::string error;
      const Scenario* sc = find_or_diagnose(argv[i], &error);
      if (sc == nullptr) return fail(error);
      targets.push_back(sc);
    }
  } else {
    targets = Registry::instance().all();
  }

  int failures = 0;
  for (const Scenario* sc : targets) {
    KnobSet knobs;
    if (sc->declare_knobs != nullptr) sc->declare_knobs(knobs);
    obs::flightrec_set_scenario(sc->name.c_str());
    obs::BenchSession session{0, nullptr, sc->family};
    sim::ParallelRunner runner{session.threads()};
    Console console;
    console.set_quiet(true);
    validate::ScopedInvariantMode mode{validate::InvariantMode::kThrow};
    std::string verdict = "OK";
    try {
      Ctx ctx{knobs, console, runner};
      Table table = sc->run(ctx);
      if (table.exit_code != 0) {
        verdict = "FAIL (exit " + std::to_string(table.exit_code) + ")";
        ++failures;
      }
    } catch (const validate::InvariantError& e) {
      verdict = std::string("FAIL (") + e.what() + ")";
      ++failures;
    }
    std::printf("validate %-22s %s\n", sc->name.c_str(), verdict.c_str());
    std::fflush(stdout);
  }
  return failures > 0 ? 1 : 0;
}

int cmd_forensics(int argc, char** argv) {
  std::string dump_path;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out") {
      if (i + 1 >= argc) return fail("--trace-out requires a value");
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return fail("forensics: unknown argument '" + std::string(arg) +
                  "' (usage: intox forensics <dump> [--trace-out FILE])");
    } else if (dump_path.empty()) {
      dump_path = arg;
    } else {
      return fail("forensics: multiple dump paths given");
    }
  }
  if (dump_path.empty()) return fail("forensics: missing dump path");

  obs::FlightrecDump dump;
  std::string error;
  if (!obs::load_flightrec_dump(dump_path, &dump, &error)) {
    return fail("forensics: " + error);
  }
  const std::string timeline = obs::render_flightrec_timeline(dump);
  std::fwrite(timeline.data(), 1, timeline.size(), stdout);
  if (!trace_out.empty()) {
    const std::string doc = obs::render_flightrec_chrome_trace(dump);
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      return fail("forensics: cannot write " + trace_out);
    }
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok) return fail("forensics: short write to " + trace_out);
    std::fprintf(stderr, "forensics: wrote Chrome trace to %s\n",
                 trace_out.c_str());
  }
  return 0;
}

}  // namespace

int driver_main(int argc, char** argv) {
  // Crash plumbing first: any command (and any scenario body it runs)
  // dumps the flight recorder on a fatal invariant or signal. The
  // pid-suffixed default keeps concurrent drivers from clobbering one
  // another; --flightrec-out / INTOX_FLIGHTREC_DUMP override it.
  obs::flightrec_init();
  if (obs::flightrec_dump_path().empty()) {
    obs::set_flightrec_dump_path(
        "intox.flightrec." + std::to_string(static_cast<long>(::getpid())) +
        ".json");
  }
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }
  if (command == "list") return cmd_list();
  if (command == "knobs") return cmd_knobs(argc, argv);
  if (command == "run") return cmd_run(argc, argv);
  if (command == "validate") return cmd_validate(argc, argv);
  if (command == "forensics") return cmd_forensics(argc, argv);
  return fail("unknown command '" + std::string(command) +
              "' (try 'intox help')");
}

bool KnobFlags::consume(int argc, char** argv, int* i, std::string* error) {
  const std::string_view flag = argv[*i];
  if (flag != "--set" && flag != "--sweep" && flag != "--config") {
    return false;
  }
  *error = apply(flag, *i + 1 < argc ? argv[++*i] : nullptr);
  return true;
}

std::string KnobFlags::apply(std::string_view flag, const char* value) {
  const auto swept = [this](std::string_view key) {
    return std::any_of(axes.begin(), axes.end(),
                       [&](const sweep::SweepAxis& a) { return a.key == key; });
  };
  if (flag == "--set") {
    if (value == nullptr) return "--set requires key=value";
    const std::string kv = value;
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      return "--set expects key=value, got '" + kv + "'";
    }
    std::string key = kv.substr(0, eq);
    if (swept(key)) {
      return "--set and --sweep both name knob '" + key +
             "' (a sweep decides that knob's value)";
    }
    std::string err = knobs.set(key, kv.substr(eq + 1));
    set_keys_.push_back(std::move(key));
    return err;
  }
  if (flag == "--sweep") {
    if (value == nullptr) return "--sweep requires key=a:b:step";
    sweep::SweepAxis axis;
    std::string err = sweep::parse_sweep_axis(value, knobs, &axis);
    if (!err.empty()) return err;
    if (std::find(set_keys_.begin(), set_keys_.end(), axis.key) !=
        set_keys_.end()) {
      return "--set and --sweep both name knob '" + axis.key +
             "' (a sweep decides that knob's value)";
    }
    if (swept(axis.key)) {
      return "--sweep: knob '" + axis.key + "' swept twice";
    }
    axes.push_back(std::move(axis));
    return "";
  }
  if (value == nullptr) return "--config requires a file path";
  return apply_config(value, &knobs);
}

std::string parse_count(std::string_view flag, const char* text,
                        std::size_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || end == text || *end != '\0' ||
      errno == ERANGE) {
    return std::string(flag) + " expects a non-negative integer, got '" +
           text + "'";
  }
  *out = static_cast<std::size_t>(v);
  return "";
}

}  // namespace intox::scenario
