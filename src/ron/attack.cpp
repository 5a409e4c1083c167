#include "ron/attack.hpp"

#include "sim/stats.hpp"

namespace intox::ron {

void RonProbeAttacker::attach(Overlay& overlay, NodeId from, NodeId to) {
  overlay.link(from, to).set_tap([this](net::Packet& p) {
    const auto* u = p.udp();
    const bool is_probe = u && (u->dst_port == 7001 || u->dst_port == 7002);
    if (is_probe) {
      if (rng_.bernoulli(config_.probe_drop_prob)) {
        ++probes_dropped_;
        return sim::TapAction::kDrop;
      }
      return sim::TapAction::kForward;
    }
    return config_.spare_data ? sim::TapAction::kForward
                              : sim::TapAction::kDrop;
  });
}

RonExperimentResult run_ron_attack_experiment(
    const RonExperimentConfig& config) {
  sim::Scheduler sched;
  RonConfig rcfg;

  sim::LinkConfig base;
  base.rate_bps = 1e9;

  Overlay overlay{sched, rcfg, /*nodes=*/4, base};
  auto set_delay = [&](NodeId a, NodeId b, sim::Duration d) {
    sim::LinkConfig cfg = base;
    cfg.prop_delay = d;
    overlay.set_link_config(a, b, cfg);
    overlay.set_link_config(b, a, cfg);
  };
  // Direct path 0-1 is the best; 2 is an honest alternative relay; 3 is
  // the attacker's relay (worst latency — nobody would pick it honestly).
  set_delay(0, 1, config.direct_delay);
  set_delay(0, 2, config.via2_leg_delay);
  set_delay(2, 1, config.via2_leg_delay);
  set_delay(0, 3, config.via3_leg_delay);
  set_delay(3, 1, config.via3_leg_delay);
  set_delay(2, 3, sim::millis(20));

  RonProbeAttacker attacker{config.attacker};
  overlay.start();

  // Steady data stream 0 -> 1; record per-packet latency.
  sim::TimeSeries latency_ms;
  std::uint64_t data_sent = 0;
  std::function<void()> send_data = [&] {
    ++data_sent;
    overlay.send_data(0, 1, 512, [&](sim::Duration lat) {
      latency_ms.record(sched.now(), sim::to_seconds(lat) * 1000.0);
    });
    sched.schedule_after(sim::millis(100), send_data);
  };
  sched.schedule_after(sim::millis(50), send_data);

  sched.run_until(config.warmup);
  RonExperimentResult result;
  result.routed_direct_before = overlay.route(0, 1).direct;
  result.mean_latency_before_ms = latency_ms.mean_over(0, config.warmup);

  if (config.attack) {
    // MitM on the direct leg and on the honest detour's first leg: the
    // only "good-looking" path left goes through the attacker's relay.
    attacker.attach(overlay, 0, 1);
    attacker.attach(overlay, 0, 2);
  }

  const sim::Time end = config.warmup + config.attack_duration;
  sched.run_until(end);
  overlay.stop();

  const OverlayRoute after = overlay.route(0, 1);
  result.routed_via_attacker_after = !after.direct && after.via == 3;
  result.via_after = after.direct ? 0 : after.via;
  result.mean_latency_after_ms =
      latency_ms.mean_over(end - config.attack_duration / 2, end);
  result.probes_dropped = attacker.probes_dropped();
  result.data_packets_sent = data_sent;
  result.route_changes = overlay.route_changes();
  return result;
}

}  // namespace intox::ron
