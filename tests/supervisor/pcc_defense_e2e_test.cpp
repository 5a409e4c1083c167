// End-to-end §5 PCC defense: rerun the §4.2 oscillation attack with the
// guard attached to the sender and compare against the undefended run.
#include <gtest/gtest.h>

#include "pcc/attacker.hpp"
#include "pcc/receiver.hpp"
#include "sim/link.hpp"
#include "supervisor/pcc_guard.hpp"

namespace intox::supervisor {
namespace {

struct RunResult {
  double rate_cv = 0.0;
  double osc_amplitude = 0.0;
  bool detected = false;
  double epsilon_cap = 0.0;
  std::uint64_t observed = 0;
  std::uint64_t dropped = 0;
};

RunResult run_attacked(bool with_guard, std::uint64_t seed = 5) {
  sim::Scheduler sched;
  pcc::PccConfig cfg;
  cfg.seed = seed;

  sim::LinkConfig fwd;
  fwd.rate_bps = 20e6;
  fwd.prop_delay = sim::millis(20);
  fwd.queue_limit_bytes = 64 * 1024;
  fwd.red_min_bytes = 8 * 1024;
  fwd.red_max_bytes = 64 * 1024;
  fwd.red_max_prob = 0.25;
  sim::LinkConfig rev;
  rev.rate_bps = 1e9;
  rev.prop_delay = sim::millis(20);

  pcc::PccSender* sp = nullptr;
  sim::Link reverse{sched, rev, [&](net::Packet a) {
                      sp->on_ack(static_cast<std::uint32_t>(a.flow_tag),
                                 sched.now());
                    }};
  pcc::PccReceiver recv{[&](net::Packet a) { reverse.transmit(std::move(a)); }};
  sim::Link bottleneck{sched, fwd, [&](net::Packet d) { recv.on_data(d); }};

  net::FiveTuple t{net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{2, 2, 2, 2},
                   10000, 443, net::IpProto::kUdp};
  pcc::PccSender sender{
      sched, cfg, t,
      [&](net::Packet p) { bottleneck.transmit(std::move(p)); }};
  sp = &sender;

  std::unique_ptr<PccGuard> guard;
  if (with_guard) guard = std::make_unique<PccGuard>(sender);

  pcc::PccMitmConfig mcfg;
  pcc::PccMitm mitm{sched, mcfg, &sender};
  mitm.attach(bottleneck);

  sender.start();
  sched.run_until(sim::seconds(60));
  sender.stop();

  RunResult out;
  sim::RunningStats stats;
  for (const auto& [when, rate] : sender.rate_series().points()) {
    if (when >= sim::seconds(40)) stats.add(rate);
  }
  out.rate_cv = stats.mean() > 0 ? stats.stddev() / stats.mean() : 0.0;
  out.osc_amplitude =
      stats.mean() > 0 ? (stats.max() - stats.min()) / (2.0 * stats.mean())
                       : 0.0;
  out.detected = guard && guard->detected();
  out.epsilon_cap = sender.epsilon_cap();
  out.observed = mitm.observed();
  out.dropped = mitm.dropped();
  return out;
}

TEST(PccDefenseE2E, GuardDetectsTheAttack) {
  const RunResult defended = run_attacked(true);
  EXPECT_TRUE(defended.detected);
  EXPECT_DOUBLE_EQ(defended.epsilon_cap, PccGuardConfig{}.clamped_epsilon);
  // The exact attacker counts. The guard clamps ε mid-MI, and the
  // attacker's drop probability must follow that change at once.
  EXPECT_EQ(defended.observed, 81931u);
  EXPECT_EQ(defended.dropped, 623u);
}

TEST(PccDefenseE2E, GuardCapsOscillationAmplitude) {
  const RunResult undefended = run_attacked(false);
  const RunResult defended = run_attacked(true);
  EXPECT_LT(defended.osc_amplitude, undefended.osc_amplitude);
  EXPECT_LT(defended.rate_cv, undefended.rate_cv);
}

}  // namespace
}  // namespace intox::supervisor
