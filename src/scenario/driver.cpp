#include "scenario/driver.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/forensics.hpp"
#include "obs/report.hpp"
#include "scenario/console.hpp"
#include "scenario/knob.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/runner.hpp"
#include "validate/invariant.hpp"

namespace intox::scenario {
namespace {

/// One-line stderr diagnostic + exit status 2.
int fail(const std::string& message) {
  std::fprintf(stderr, "intox: %s\n", message.c_str());
  return 2;
}

/// A run's exit status: 1 when any claim it printed failed.
int claims_exit(const Console& console) {
  return console.passed() < console.claims() ? 1 : 0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: intox <command> [args]\n"
               "  list                       enumerate registered scenarios\n"
               "  knobs <scenario>           show a scenario's knobs\n"
               "  run <scenario> [options]   run one configuration\n"
               "      --set key=value        override a knob\n"
               "      --config FILE          key=value lines, '#' comments\n"
               "      --threads N            worker threads (0 = auto)\n"
               "      --metrics-out FILE     write the BENCH_<family>.json "
               "report here\n"
               "      --flightrec-out FILE   write the flight-recorder "
               "crash dump here\n"
               "      --point-record FILE    write a sweep point record "
               "instead of stdout\n"
               "  sweep <scenario> [options] run the --sweep key=a:b:step "
               "cross product\n"
               "      (run's options + --sweep, --workers N, --cache-dir "
               "DIR, --out FILE;\n"
               "      see 'intox sweep --help')\n"
               "  forensics <dump>           render a flight-recorder crash "
               "dump as a timeline\n"
               "  validate [scenario...]     run quietly; report failed "
               "claims and invariants\n"
               "  help                       this text\n");
}

const Scenario* find_or_diagnose(const char* name, std::string* error) {
  const Scenario* sc = find_scenario(name);
  if (sc == nullptr) {
    *error = std::string("unknown scenario '") + name +
             "' (run 'intox list' to enumerate)";
  }
  return sc;
}

int cmd_list() {
  for (const Scenario* sc : all_scenarios()) {
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
  sc->declare_knobs(knobs);
  std::printf("%s (%s) — %s\n", sc->name.c_str(), sc->family.c_str(),
              sc->description.c_str());
  for (const Knob& k : knobs.all()) {
    std::string spec = std::string(to_string(k.kind)) + "=" + k.default_text;
    if (k.has_range) spec += " in " + render_range(k);
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

/// Runs one configuration of `sc` and returns its console, whose tally
/// decides the exit. The console prints, or with a non-null `capture`
/// appends the same bytes there.
Console run_scenario(const Scenario& sc, const KnobSet& knobs,
                     const SinkFlags& sinks, std::string* capture) {
  obs::flightrec_set_scenario(sc.name.c_str());
  if (!sinks.flightrec_out.empty()) {
    obs::set_flightrec_dump_path(sinks.flightrec_out);
  }
  obs::BenchSession session{sc.family, sinks.threads.value_or(0),
                            sinks.metrics_out};
  sim::ParallelRunner runner{sinks.threads.value_or(0)};
  Console console{capture};
  Ctx ctx{knobs, console, runner, session};
  sc.run(ctx);
  return console;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return fail("run: missing scenario name");
  std::string error;
  const Scenario* sc = find_or_diagnose(argv[2], &error);
  if (sc == nullptr) return fail(error);

  KnobFlags flags;
  sc->declare_knobs(flags.knobs);
  SinkFlags sinks;

  std::string point_record_path;
  for (int i = 3; i < argc; ++i) {
    if (flags.consume(argc, argv, &i, &error) ||
        sinks.consume(argc, argv, &i, &error)) {
      if (!error.empty()) return fail(error);
      continue;
    }
    const std::string_view arg = argv[i];
    if (arg == "--point-record") {
      if (i + 1 >= argc) return fail("--point-record requires a file path");
      point_record_path = argv[++i];
    } else {
      return fail("unknown argument '" + std::string(arg) +
                  "' (try 'intox help')");
    }
  }

  // With --point-record (an `intox sweep` worker), stdout goes into the
  // record file instead of the terminal; the orchestrator prints the
  // records in point order.
  const bool recording = !point_record_path.empty();
  std::string captured;
  const Console console = run_scenario(*sc, flags.knobs, sinks,
                                       recording ? &captured : nullptr);
  const int exit_code = claims_exit(console);
  if (recording) {
    obs::PointRecord record;
    record.scenario = sc->name;
    record.family = sc->family;
    for (const Knob& k : flags.knobs.all()) {
      record.knobs.emplace_back(k.name, render_value(k));
    }
    record.exit_code = exit_code;
    record.stdout_text = std::move(captured);
    if (!obs::write_point_record(point_record_path, record)) return 1;
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
    const auto all = all_scenarios();
    targets.assign(all.begin(), all.end());
  }

  int failures = 0;
  for (const Scenario* sc : targets) {
    KnobSet knobs;
    sc->declare_knobs(knobs);
    std::string discarded;
    std::string verdict = "OK";
    try {
      const Console console = run_scenario(*sc, knobs, {}, &discarded);
      if (claims_exit(console) != 0) {
        verdict = "FAIL (" +
                  std::to_string(console.claims() - console.passed()) +
                  " of " + std::to_string(console.claims()) +
                  " claims failed)";
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
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      return fail("forensics: unknown argument '" + std::string(arg) +
                  "' (usage: intox forensics <dump>)");
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
  return 0;
}

}  // namespace

int driver_main(int argc, char** argv) {
  // Crash plumbing first: any command (and any scenario body it runs)
  // dumps the flight recorder on a fatal signal. The pid-suffixed
  // default keeps concurrent drivers from clobbering one another;
  // --flightrec-out overrides it.
  obs::flightrec_init();
  obs::set_flightrec_dump_path(
      "intox.flightrec." + std::to_string(static_cast<long>(::getpid())) +
      ".json");
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
  if (command == "run") {
    // A violated invariant fails the run: the dump records why, and no
    // point record is written, so `intox sweep` reports the point
    // failed just as it does for a crash.
    try {
      return cmd_run(argc, argv);
    } catch (const validate::InvariantError& e) {
      obs::flightrec_dump_on_crash("invariant", e.what());
      std::fprintf(stderr, "intox: %s\n", e.what());
      return 1;
    }
  }
  if (command == "validate") return cmd_validate(argc, argv);
  if (command == "forensics") return cmd_forensics(argc, argv);
  return fail("unknown command '" + std::string(command) +
              "' (try 'intox help')");
}

bool KnobFlags::consume(int argc, char** argv, int* i, std::string* error) {
  const std::string_view flag = argv[*i];
  if (flag != "--set" && flag != "--config") return false;
  *error = apply(flag, *i + 1 < argc ? argv[++*i] : nullptr);
  return true;
}

std::string KnobFlags::apply(std::string_view flag, const char* value) {
  if (flag == "--config") {
    if (value == nullptr) return "--config requires a file path";
    return apply_config(value, &knobs);
  }
  if (value == nullptr) return "--set requires key=value";
  const std::string kv = value;
  const auto eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) {
    return "--set expects key=value, got '" + kv + "'";
  }
  set_keys.push_back(kv.substr(0, eq));
  return knobs.set(set_keys.back(), kv.substr(eq + 1));
}

bool SinkFlags::consume(int argc, char** argv, int* i, std::string* error) {
  const std::string_view flag = argv[*i];
  std::string* path = flag == "--metrics-out"     ? &metrics_out
                      : flag == "--flightrec-out" ? &flightrec_out
                                                  : nullptr;
  if (path == nullptr && flag != "--threads") return false;
  error->clear();
  if (*i + 1 >= argc) {
    *error = std::string(flag) + " requires a value";
  } else if (path != nullptr) {
    *path = argv[++*i];
  } else {
    std::size_t n = 0;
    *error = parse_count(flag, argv[++*i], &n);
    if (error->empty()) threads = n;
  }
  return true;
}

std::string parse_count(std::string_view flag, const char* text,
                        std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v)) {
    return std::string(flag) + " expects a non-negative integer, got '" +
           text + "'";
  }
  *out = static_cast<std::size_t>(v);
  return "";
}

}  // namespace intox::scenario
