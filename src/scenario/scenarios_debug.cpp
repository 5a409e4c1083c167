// debug.* scenarios: deterministic workloads whose only purpose is to
// exercise the failure plumbing — the flight recorder, the failed-run
// exit of a violated invariant, and the sweep orchestrator's crash
// forensics. The workload is plain scheduler churn with a running
// checksum, so the stdout (and thus the point record) is a pure
// function of the knobs.
#include <csignal>
#include <cstdlib>
#include <functional>
#include <string>

#include "net/hash.hpp"
#include "obs/flightrec.hpp"
#include "scenario/registry.hpp"
#include "sim/event_queue.hpp"
#include "validate/invariant.hpp"

namespace intox::scenario {
namespace {

void declare_debug_crash(KnobSet& knobs) {
  knobs.declare_u64("seed", 1,
                    "rng stream selector; the run whose seed equals "
                    "INTOX_DEBUG_CRASH_SEED fails at the midpoint as "
                    "INTOX_DEBUG_CRASH_MODE says "
                    "(segv|abort|invariant; default segv)");
  knobs.declare_u64("events", 20000, "scheduler events to fire", 2,
                    100000000);
}

void force_crash(const std::string& mode) {
  if (mode == "segv") {
    std::raise(SIGSEGV);
  } else if (mode == "abort") {
    std::abort();
  } else if (mode == "invariant") {
    INTOX_INVARIANT(false, "debug.crash: forced fatal invariant");
  }
  // Unknown mode: keep running; the claim below still verifies the
  // workload itself.
}

void run_debug_crash(Ctx& ctx) {
  ctx.out.header("DEBUG",
                 "deterministic scheduler churn with an optional forced "
                 "crash at the midpoint");

  const std::uint64_t seed = ctx.knobs.u("seed");
  const std::uint64_t events = ctx.knobs.u("events");
  // The crash trigger is the env pair, not a knob: it picks ONE sweep
  // point (by seed) without entering the knob vector, so the point's
  // cache key — and therefore the resumed sweep's merged report — is
  // byte-identical with and without it.
  std::string crash = "none";
  const char* env = std::getenv("INTOX_DEBUG_CRASH_SEED");
  std::uint64_t crash_seed = 0;
  if (env != nullptr && parse_u64(env, &crash_seed) && crash_seed == seed) {
    const char* mode = std::getenv("INTOX_DEBUG_CRASH_MODE");
    crash = (mode != nullptr && mode[0] != '\0') ? mode : "segv";
  }

  sim::Scheduler sched;
  sim::Rng rng{seed};
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0;
  const std::uint64_t crash_at = events / 2;
  std::function<void()> tick = [&] {
    ++fired;
    checksum = net::mix64(checksum ^ fired);
    if (fired == crash_at && crash != "none") {
      obs::flightrec_record(obs::FrType::kNote,
                            static_cast<std::uint64_t>(sched.now()), 1,
                            fired, checksum);
      force_crash(crash);
    }
    if (fired < events) {
      sched.schedule_after(
          1 + static_cast<sim::Duration>(rng.uniform_int(0, 1000)), tick);
    }
  };
  sched.schedule_at(0, tick);
  sched.run();

  ctx.out.row("fired %llu events, checksum %016llx",
              static_cast<unsigned long long>(fired),
              static_cast<unsigned long long>(checksum));
  ctx.out.claim(fired == events, "every scheduled event fired");
}

}  // namespace

const Scenario kDebugCrash{"debug.crash", "DEBUG",
                           "deterministic churn that can crash on demand "
                           "(flight-recorder forensics harness)",
                           declare_debug_crash, run_debug_crash};

}  // namespace intox::scenario
