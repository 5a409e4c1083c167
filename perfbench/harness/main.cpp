// perfbench: runs one benchmark workload for a wall-clock budget and
// prints its metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload blink-hijack|blink-fig2|pcc-fleet --seed N
//             [--seconds S] [--trace 0|1] [--spans-out FILE]
//   perfbench --equivalence
//
// --trace 0 repeats the workload untraced and reports the end-to-end
// metrics (medians over the repetitions). --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics of the traced
// ones; --spans-out then writes the sampled spans as a Chrome trace.
// --equivalence compares every rebuilt workload with its library entry
// point. Exit codes: 0 ran (the JSON says whether every check passed),
// 1 equivalence mismatch or I/O error, 2 bad usage.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/workloads.hpp"

namespace intox::perfbench {
namespace {

// A warm-up plus two timed repetitions (one of each kind when tracing);
// the digest check needs at least one repeat.
constexpr std::size_t kMinReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

struct Options {
  Workload workload = Workload::kBlinkHijack;
  std::string workload_name;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool equivalence = false;
};

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--equivalence") {
      opt.equivalence = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans-out") {
      usage_error("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + " expects a value");
    if (!seen.emplace(flag, argv[i + 1]).second) {
      usage_error(flag + " given twice");
    }
    ++i;
  }
  if (opt.equivalence) {
    if (!seen.empty()) usage_error("--equivalence takes no other arguments");
    return opt;
  }

  if (!seen.count("--workload")) usage_error("--workload is required");
  opt.workload_name = seen["--workload"];
  if (opt.workload_name == "blink-hijack") {
    opt.workload = Workload::kBlinkHijack;
  } else if (opt.workload_name == "blink-fig2") {
    opt.workload = Workload::kBlinkFig2;
  } else if (opt.workload_name == "pcc-fleet") {
    opt.workload = Workload::kPccFleet;
  } else {
    usage_error("unknown workload '" + opt.workload_name +
                "' (expected blink-hijack, blink-fig2 or pcc-fleet)");
  }

  if (!seen.count("--seed")) usage_error("--seed is required");
  const auto seed = parse_u64(seen["--seed"]);
  if (!seed) {
    usage_error("--seed expects a non-negative integer, got '" +
                seen["--seed"] + "'");
  }
  opt.seed = *seed;

  if (seen.count("--seconds")) {
    const auto s = parse_u64(seen["--seconds"]);
    if (!s || *s < 1 || *s > 3600) {
      usage_error("--seconds expects an integer in [1, 3600], got '" +
                  seen["--seconds"] + "'");
    }
    opt.seconds = static_cast<int>(*s);
  }
  if (seen.count("--trace")) {
    const std::string& t = seen["--trace"];
    if (t != "0" && t != "1") {
      usage_error("--trace expects 0 or 1, got '" + t + "'");
    }
    opt.trace = t == "1";
  }
  if (seen.count("--spans-out")) opt.spans_out = seen["--spans-out"];
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Correctness tally over every simulation of an invocation. A simulation
/// fails if any of its checks fails, including the digest check: its
/// result must equal the first repetition's, traced or not.
class Tally {
 public:
  void score(WorkloadRun& run, bool report = true) {
    const bool first = digests_.empty();
    for (std::size_t i = 0; i < run.sims.size(); ++i) {
      SimStats& sim = run.sims[i];
      if (first) {
        digests_.push_back(sim.digest);
      } else {
        sim.expect(i < digests_.size() && sim.digest == digests_[i],
                   "result digest repeats across repetitions");
      }
      ++attempted_;
      failed_ += sim.checks_failed > 0;
      checks_run_ += sim.checks_run;
      checks_failed_ += sim.checks_failed;
      if (report && sim.checks_failed > 0) {
        std::fprintf(stderr, "perfbench: check failed: %s (simulation %zu)\n",
                     sim.first_failure, i);
      }
    }
  }
  /// Counts one invocation-level check that is not tied to a simulation.
  void expect(bool ok, const char* what) {
    ++checks_run_;
    if (ok) return;
    ++checks_failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t checks_failed() const { return checks_failed_; }
  [[nodiscard]] double pass_ratio() const {
    return ratio(static_cast<double>(checks_run_ - checks_failed_),
                 static_cast<double>(checks_run_));
  }

 private:
  std::vector<std::uint64_t> digests_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t checks_run_ = 0, checks_failed_ = 0;
};

/// Self-test of the digest check: a repetition whose digest was corrupted
/// must be counted as a failed simulation.
bool digest_check_catches_corruption() {
  Tally tally;
  for (std::uint64_t corruption : {0, 1}) {
    WorkloadRun run;
    run.sims.resize(2);
    run.sims[0].digest = 0x5eed;
    run.sims[1].digest = 0xfeed ^ corruption;
    tally.score(run, /*report=*/false);
  }
  return tally.failed() == 1 && tally.checks_failed() == 1;
}

double pkts_per_s(const WorkloadRun& run) {
  double pkts = 0.0, run_s = 0.0;
  for (const SimStats& sim : run.sims) {
    pkts += static_cast<double>(sim.pkts);
    run_s += sim.run_s;
  }
  return ratio(pkts, run_s);
}

double setup_s(const WorkloadRun& run) {
  double s = 0.0;
  for (const SimStats& sim : run.sims) s += sim.setup_s;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// The per-layer numbers of one traced repetition.
Metrics layer_metrics(Workload workload, const WorkloadRun& run) {
  Probe all;
  SimStats sum;
  for (const SimStats& sim : run.sims) {
    all.add_totals(sim.probe);
    sum.pkts += sim.pkts;
    sum.events += sim.events;
    sum.queue_hwm = std::max(sum.queue_hwm, sim.queue_hwm);
    sum.forks += sim.forks;
    sum.flows += sim.flows;
    sum.driver_bytes += sim.driver_bytes;
    sum.link_delivered += sim.link_delivered;
    sum.link_drops += sim.link_drops;
    sum.retx_detections += sim.retx_detections;
    sum.reroutes += sim.reroutes;
    sum.decisions += sim.decisions;
    sum.inconclusive += sim.inconclusive;
  }
  auto secs = [&](Layer l) { return static_cast<double>(all.at(l).ns) * 1e-9; };
  auto calls = [&](Layer l) { return static_cast<double>(all.at(l).calls); };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double blink_calls = calls(Layer::kBlinkProcess);
  const bool trafficgen = sum.flows > 0;

  Metrics m;
  m["sim.sched.events"] = {count(sum.events), "count"};
  m["sim.sched.events_per_pkt"] = {
      ratio(count(sum.events), count(sum.pkts)), "ratio"};
  m["sim.sched.queue_hwm"] = {count(sum.queue_hwm), "count"};
  m["sim.sched.run_s"] = {secs(Layer::kSchedRun), "s"};
  m["sim.sched.self_s"] = {
      static_cast<double>(all.at(Layer::kSchedRun).ns - all.sched_child_ns()) *
          1e-9,
      "s"};
  m["sim.link.transmit_calls"] = {
      calls(Layer::kLinkTransmit) + calls(Layer::kBottleneck), "count"};
  m["sim.link.transmit_s"] = {
      secs(Layer::kLinkTransmit) + secs(Layer::kBottleneck), "s"};
  m["sim.link.delivered"] = {count(sum.link_delivered), "count"};
  m["sim.link.drops"] = {count(sum.link_drops), "count"};
  m["sim.rng.forks"] = {count(sum.forks), "count"};
  m["sim.rng.state_mb"] = {
      count(sum.forks) * static_cast<double>(sizeof(sim::Rng)) / kMiB, "MB"};
  m["sim.runner.trial_s_p50"] = {median(run.trial_s), "s"};
  m["sim.runner.trial_s_max"] = {
      run.trial_s.empty()
          ? 0.0
          : *std::max_element(run.trial_s.begin(), run.trial_s.end()),
      "s"};
  m["sim.runner.shard_imbalance"] = {run.shard_imbalance, "ratio"};
  m["trafficgen.synth_s"] = {secs(Layer::kSynth), "s"};
  m["trafficgen.populate_s"] = {secs(Layer::kPopulate), "s"};
  m["trafficgen.start_s"] = {secs(Layer::kStart), "s"};
  m["trafficgen.flows"] = {count(sum.flows), "count"};
  m["trafficgen.pkts"] = {trafficgen ? count(sum.pkts) : 0.0, "count"};
  m["trafficgen.driver_mb"] = {count(sum.driver_bytes) / kMiB, "MB"};
  m["dataplane.receive_calls"] = {calls(Layer::kSwitchReceive), "count"};
  m["dataplane.receive_s"] = {secs(Layer::kSwitchReceive), "s"};
  m["blink.process_calls"] = {blink_calls, "count"};
  m["blink.process_s"] = {secs(Layer::kBlinkProcess), "s"};
  m["blink.retx_detections"] = {count(sum.retx_detections), "count"};
  m["blink.reroutes"] = {count(sum.reroutes), "count"};
  m["blink.retx_per_pkt"] = {ratio(count(sum.retx_detections), blink_calls),
                             "ratio"};
  m["pcc.on_ack_s"] = {secs(Layer::kPccOnAck), "s"};
  m["pcc.on_data_s"] = {secs(Layer::kPccOnData), "s"};
  double clean_ns = 0.0, attacked_ns = 0.0, drop_ratio = 0.0;
  if (workload == Workload::kPccFleet) {
    auto per_call = [](const SimStats& sim) {
      const Probe::Totals& t = sim.probe.at(Layer::kBottleneck);
      return ratio(static_cast<double>(t.ns), static_cast<double>(t.calls));
    };
    clean_ns = per_call(run.sims[0]);
    attacked_ns = per_call(run.sims[1]);
    drop_ratio = ratio(count(run.sims[1].mitm_dropped),
                       count(run.sims[1].mitm_observed));
  }
  m["pcc.clean.transmit_ns"] = {clean_ns, "ns"};
  m["pcc.attacked.transmit_ns"] = {attacked_ns, "ns"};
  m["pcc.mitm_drop_ratio"] = {drop_ratio, "ratio"};
  m["pcc.decisions"] = {count(sum.decisions), "count"};
  m["pcc.inconclusive"] = {count(sum.inconclusive), "count"};
  return m;
}

/// Writes the sampled spans of `run` as a Chrome trace (one tid per
/// simulation; the parent span index is kept in args).
bool write_spans(const std::string& path, const WorkloadRun& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t tid = 0; tid < run.sims.size(); ++tid) {
    const std::vector<Span>& spans = run.sims[tid].probe.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   first ? "" : ",", layer_name(s.layer), tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.checks_failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int run_benchmark(const Options& opt) {
  Tally tally;
  tally.expect(digest_check_catches_corruption(),
               "digest self-test: a corrupted digest counts as a failure");

  std::vector<double> setups, pps, walls, traced_pps;
  std::vector<Metrics> traced;
  WorkloadRun last_traced;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds) * 1'000'000'000;
  // Repetition 0 warms up (first-touch page faults, thread start-up) and
  // is checked but not timed. --trace 1 then alternates untraced and
  // traced repetitions, so both see the same machine state and their
  // ratio is the tracing overhead.
  for (std::size_t rep = 0;; ++rep) {
    const bool traced_rep = opt.trace && rep > 0 && rep % 2 == 0;
    WorkloadRun run = run_workload(
        opt.workload, opt.seed, traced_rep ? Mode::kTraced : Mode::kUntraced);
    // Hand the freed heap back to the kernel, so every repetition pays
    // for fresh pages the way a new `intox` process does.
    malloc_trim(0);
    tally.score(run);
    std::fprintf(stderr,
                 "perfbench: rep %zu%s: setup %.3f s, %.0f pkts/s, wall "
                 "%.3f s\n",
                 rep, traced_rep ? " (traced)" : "", setup_s(run),
                 pkts_per_s(run), run.wall_s);
    if (rep == 0) {
      // warm-up: scored above, not timed
    } else if (traced_rep) {
      traced_pps.push_back(pkts_per_s(run));
      traced.push_back(layer_metrics(opt.workload, run));
      last_traced = std::move(run);
    } else {
      setups.push_back(setup_s(run));
      pps.push_back(pkts_per_s(run));
      walls.push_back(run.wall_s);
      // More setup_s samples: set-up-only repetitions worth about a tenth
      // of this repetition's wall time. pcc-fleet sets up in ~30 ms, and
      // the median of its two or three timed repetitions alone spreads
      // past setup_s's bound over ten seeds (see perfbench/README.md).
      if (!opt.trace) {
        double spent = 0.0;
        do {
          const WorkloadRun setup =
              run_workload(opt.workload, opt.seed, Mode::kSetupOnly);
          malloc_trim(0);
          setups.push_back(setup_s(setup));
          spent += setup.wall_s;
        } while (spent < 0.1 * run.wall_s);
      }
    }
    if (rep + 1 >= kMinReps && now_ns() >= deadline) break;
  }

  Metrics out;
  if (!opt.trace) {
    out["setup_s"] = {median(setups), "s"};
    out["pkts_per_s"] = {median(pps), "1/s"};
    out["wall_s"] = {median(walls), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out["check_pass_ratio"] = {tally.pass_ratio(), "ratio"};
  } else {
    for (const auto& [name, metric] : traced.front()) {
      std::vector<double> values;
      for (const Metrics& m : traced) values.push_back(m.at(name).value);
      out[name] = {median(values), metric.unit};
    }
    out["bench.trace_overhead"] = {ratio(median(traced_pps), median(pps)),
                                   "ratio"};
    if (!opt.spans_out.empty() && !write_spans(opt.spans_out, last_traced)) {
      return 1;
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu timed repetitions after a "
               "warm-up, %llu/%llu simulations passed every check\n",
               opt.workload_name.c_str(),
               static_cast<unsigned long long>(opt.seed),
               pps.size() + traced.size(),
               static_cast<unsigned long long>(tally.attempted() -
                                               tally.failed()),
               static_cast<unsigned long long>(tally.attempted()));
  print_result(tally, out);
  return 0;
}

// ------------------------------------------------------------ equivalence

bool same_series(const sim::TimeSeries& a, const sim::TimeSeries& b) {
  return a.points() == b.points();
}

bool report(bool equal, const std::string& what) {
  std::printf("%s  %s\n", equal ? "equal   " : "MISMATCH", what.c_str());
  return equal;
}

int run_equivalence() {
  bool ok = true;

  // blink-hijack has no library entry point besides the `blink.e2e`
  // scenario, so it is pinned to that scenario's output at seed 2024.
  const HijackOutcome hijack = hijack_outcome(2024);
  char when[32] = "none";
  if (!hijack.reroutes.empty()) {
    std::snprintf(when, sizeof when, "%.1f",
                  sim::to_seconds(hijack.reroutes[0].when));
  }
  std::printf("blink-hijack seed=2024 pkts=%llu hijack_at=%s share=%.1f\n",
              static_cast<unsigned long long>(hijack.pkts), when,
              hijack.hijacked_share * 100.0);
  ok &= report(hijack.pkts == 2673573 && std::string(when) == "108.4",
               "blink-hijack vs intox run blink.e2e (2673573 packets, "
               "hijack at 108.4 s)");

  for (std::size_t i = 0; i < kFig2Trials; ++i) {
    const blink::Fig2Config cfg = fig2_config(0, i);
    const blink::Fig2Result a = fig2_outcome(cfg);
    const blink::Fig2Result b = blink::run_fig2_experiment(cfg);
    bool reroutes = a.reroutes.size() == b.reroutes.size();
    for (std::size_t r = 0; reroutes && r < a.reroutes.size(); ++r) {
      reroutes = a.reroutes[r].when == b.reroutes[r].when &&
                 a.reroutes[r].retransmitting_cells ==
                     b.reroutes[r].retransmitting_cells;
    }
    ok &= report(same_series(a.malicious_sampled, b.malicious_sampled) &&
                     a.measured_tr_seconds == b.measured_tr_seconds &&
                     a.time_to_majority_seconds ==
                         b.time_to_majority_seconds &&
                     reroutes,
                 "blink-fig2 trial seed " + std::to_string(cfg.seed) +
                     " vs blink::run_fig2_experiment");
  }

  for (bool attack : {false, true}) {
    const pcc::PccExperimentConfig cfg = pcc_fleet_config(9, attack);
    const pcc::PccExperimentResult a = pcc_outcome(cfg);
    const pcc::PccExperimentResult b = pcc::run_pcc_experiment(cfg);
    std::printf("pcc-fleet seed=9 %s delivered_cv=%.6f dropped=%llu "
                "observed=%llu\n",
                attack ? "attacked" : "clean", a.delivered_cv,
                static_cast<unsigned long long>(a.attacker_dropped),
                static_cast<unsigned long long>(a.attacker_observed));
    ok &= report(same_series(a.delivered_bps, b.delivered_bps) &&
                     same_series(a.rate, b.rate) &&
                     a.delivered_cv == b.delivered_cv &&
                     a.rate_cv == b.rate_cv &&
                     a.mean_rate_bps == b.mean_rate_bps &&
                     a.osc_amplitude == b.osc_amplitude &&
                     a.mean_utility == b.mean_utility &&
                     a.decisions == b.decisions &&
                     a.inconclusive == b.inconclusive &&
                     a.attacker_dropped == b.attacker_dropped &&
                     a.attacker_observed == b.attacker_observed,
                 std::string("pcc-fleet ") + (attack ? "attacked" : "clean") +
                     " vs pcc::run_pcc_experiment");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace intox::perfbench

int main(int argc, char** argv) {
  const intox::perfbench::Options opt = intox::perfbench::parse_args(argc, argv);
  if (opt.equivalence) return intox::perfbench::run_equivalence();
  return intox::perfbench::run_benchmark(opt);
}
