// Extensions scenario: the other §3.2 systems the paper names but does
// not evaluate (RON, egress steering, DAPPER, in-network NN inference,
// seed-rotation defense). Ported verbatim from the pre-registry bench
// binary.
#include <cstdint>

#include "dapper/attack.hpp"
#include "egress/attack.hpp"
#include "innet/attack.hpp"
#include "net/hash.hpp"
#include "ron/attack.hpp"
#include "scenario/registry.hpp"
#include "sketch/attack.hpp"
#include "sketch/rotation.hpp"

namespace intox::scenario {
namespace {

void declare_ext(KnobSet& knobs) {
  knobs.declare_u64("nn_seed", 11,
                    "train/test split seed for the in-network classifier");
  knobs.declare_u64("rotation_period", 1024,
                    "inserts between hash-seed rotations (EXT-ROTATE)", 1,
                    1000000);
}

void run_ext(Ctx& ctx) {
  ctx.out.header("EXT-RON",
                 "diverting a resilient overlay by dropping probes");

  ron::RonExperimentConfig clean_cfg;
  clean_cfg.attack = false;
  const auto clean = ron::run_ron_attack_experiment(clean_cfg);
  const auto attacked =
      ron::run_ron_attack_experiment(ron::RonExperimentConfig{});

  ctx.out.row("%-26s %12s %12s", "", "no attack", "probe drops");
  ctx.out.row("%-26s %12s %12s", "route 0->1 after",
              clean.routed_via_attacker_after ? "via attacker" : "direct",
              attacked.routed_via_attacker_after ? "via attacker"
                                                 : "direct");
  ctx.out.row("%-26s %9.2f ms %9.2f ms", "mean data latency",
              clean.mean_latency_after_ms, attacked.mean_latency_after_ms);
  ctx.out.row("%-26s %12llu %12llu", "probes dropped",
              static_cast<unsigned long long>(clean.probes_dropped),
              static_cast<unsigned long long>(attacked.probes_dropped));
  ctx.out.row("%-26s %12llu %12llu", "data packets (untouched)",
              static_cast<unsigned long long>(clean.data_packets_sent),
              static_cast<unsigned long long>(attacked.data_packets_sent));

  ctx.out.claim(
      clean.routed_direct_before && !clean.routed_via_attacker_after,
      "healthy overlay keeps the direct (best) path");
  ctx.out.claim(attacked.routed_via_attacker_after,
                "dropping probes on the good paths herds traffic through "
                "the attacker's relay");
  ctx.out.claim(attacked.mean_latency_after_ms >
                    2.0 * attacked.mean_latency_before_ms,
                "victim pays ~3x latency although the real direct path "
                "was perfect the whole time");
  ctx.out.note("only probe packets were dropped; every data packet was "
               "forwarded untouched — perception, not reality, was "
               "attacked.");

  ctx.out.header("EXT-EGRESS",
                 "steering passive-measurement egress selection "
                 "(Espresso / Edge Fabric class)");
  egress::EgressExperimentConfig ecfg;
  ecfg.attack = false;
  const auto eclean = egress::run_egress_attack_experiment(ecfg);
  ecfg.attack = true;
  const auto eatk = egress::run_egress_attack_experiment(ecfg);
  ctx.out.row("%-26s %12s %12s", "", "no attack", "degraded");
  ctx.out.row("%-26s %12zu %12zu", "preferred egress path",
              eclean.preferred_after, eatk.preferred_after);
  ctx.out.row("%-26s %9.1f ms %9.1f ms", "mean user RTT",
              eclean.mean_rtt_after_ms, eatk.mean_rtt_after_ms);
  ctx.out.row("%-26s %11.1f%% %11.1f%%", "time on attacker's path",
              eclean.attacker_path_fraction * 100.0,
              eatk.attacker_path_fraction * 100.0);
  ctx.out.row("%-26s %12llu %12llu", "packets dropped by MitM",
              static_cast<unsigned long long>(eclean.attacker_dropped),
              static_cast<unsigned long long>(eatk.attacker_dropped));
  ctx.out.claim(eclean.preferred_after == 0 &&
                    eclean.attacker_path_fraction < 0.05,
                "undisturbed edge prefers the genuinely best peering "
                "path");
  ctx.out.claim(eatk.preferred_after == ecfg.attacker.attacker_path &&
                    eatk.attacker_path_fraction > 0.7,
                "degrading the good paths' flows herds the prefix onto "
                "the attacker's peering path");
  ctx.out.claim(static_cast<double>(eatk.attacker_dropped) <
                    0.05 * static_cast<double>(eatk.packets_total),
                "sustained tampering volume stays under 5% of traffic "
                "(passive measurements amplify small signals)");

  ctx.out.header("EXT-DAPPER",
                 "implicating an innocent party in TCP diagnosis");

  ctx.out.row("%-12s | %8s %8s %8s %8s | %10s", "MitM target", "healthy",
              "sender", "network", "receiver", "touched");
  bool all_correct = true;
  for (auto target :
       {dapper::Implicate::kNone, dapper::Implicate::kSender,
        dapper::Implicate::kNetwork, dapper::Implicate::kReceiver}) {
    const auto r = dapper::run_diagnosis_experiment(
        dapper::ConversationConfig{}, target);
    ctx.out.row("%-12s | %7.0f%% %7.0f%% %7.0f%% %7.0f%% | %9.2f%%",
                dapper::to_string(target), r.healthy_fraction * 100.0,
                r.sender_fraction * 100.0, r.network_fraction * 100.0,
                r.receiver_fraction * 100.0,
                100.0 * static_cast<double>(r.packets_touched) /
                    static_cast<double>(r.packets_total));
    switch (target) {
      case dapper::Implicate::kNone:
        all_correct &= r.dominant == dapper::Verdict::kHealthy;
        break;
      case dapper::Implicate::kSender:
        all_correct &= r.dominant == dapper::Verdict::kSenderLimited;
        break;
      case dapper::Implicate::kNetwork:
        all_correct &= r.dominant == dapper::Verdict::kNetworkLimited;
        break;
      case dapper::Implicate::kReceiver:
        all_correct &= r.dominant == dapper::Verdict::kReceiverLimited;
        break;
    }
  }
  ctx.out.claim(all_correct,
                "for each of sender/network/receiver there is a header "
                "manipulation that pins DAPPER's blame exactly there");
  ctx.out.note("the rewritten fields (rwnd, ack number, replayed "
               "segments) are unauthenticated; the real connection was "
               "healthy in every run.");

  ctx.out.header("EXT-NN",
                 "adversarial examples vs an in-network classifier");
  const std::uint64_t nn_seed = ctx.knobs.u("nn_seed");
  const auto clf = innet::train_classifier(nn_seed);
  ctx.out.row("classifier: %zu->%zu->%zu fixed-point MLP; test accuracy "
              "float %.1f%%, quantized %.1f%%",
              innet::kFeatures, innet::kHidden, innet::kClasses,
              clf.test_accuracy * 100.0,
              clf.quantized_test_accuracy * 100.0);
  ctx.out.row("%8s | %10s %14s", "budget", "evasion", "random control");
  double evasion_at_64 = 0.0, random_at_64 = 0.0, detect = 0.0;
  for (int budget : {16, 32, 64, 96}) {
    innet::EvasionConfig ecfg2;
    ecfg2.budget = budget;
    const auto o = innet::run_evasion_experiment(nn_seed, ecfg2);
    ctx.out.row("%8d | %9.1f%% %13.1f%%", budget, o.evasion_rate * 100.0,
                o.random_flip_rate * 100.0);
    if (budget == 64) {
      evasion_at_64 = o.evasion_rate;
      random_at_64 = o.random_flip_rate;
      detect = o.clean_detection_rate;
    }
  }
  ctx.out.claim(detect > 0.9, "deployed classifier catches >90% of "
                              "attacks on clean inputs");
  ctx.out.claim(evasion_at_64 > 0.7 && evasion_at_64 > random_at_64 + 0.3,
                "header-tweak adversarial examples evade detection; "
                "random tweaks of the same size do not");
  ctx.out.note("every feature is a header field any Internet host sets "
               "freely — the paper's point about exposing NN inference "
               "to arbitrary inputs.");

  ctx.out.header("EXT-ROTATE", "§5-V obfuscation: rotating hash seeds vs "
                               "crafted-key pollution");
  sketch::RotationConfig rcfg;
  rcfg.cells = 4096;
  rcfg.hashes = 4;
  rcfg.rotation_period = ctx.knobs.u("rotation_period");
  rcfg.retained_keys = 512;
  sketch::RotatingBloom defended{rcfg};
  const auto crafted = sketch::craft_saturating_keys(
      rcfg.cells, rcfg.hashes, defended.current_seed(), 1024);
  sketch::BloomFilter undefended{rcfg.cells, rcfg.hashes,
                                 defended.current_seed()};
  for (auto k : crafted) undefended.insert(k);
  for (auto k : crafted) defended.insert(k);
  const double fpr_static = sketch::bloom_empirical_fpr(undefended, 20000);
  const double fpr_rotated =
      sketch::bloom_empirical_fpr(defended.filter(), 20000);
  ctx.out.row("crafted 1024-key pollution: static filter FPR %.1f%%, "
              "rotating filter FPR %.1f%% (%llu rotation(s))",
              fpr_static * 100.0, fpr_rotated * 100.0,
              static_cast<unsigned long long>(defended.rotations()));
  ctx.out.claim(fpr_static > 0.5 && fpr_rotated < fpr_static / 3.0,
                "seed rotation strips crafted keys of their structure "
                "(defense-in-depth, as §5-V suggests)");
}

}  // namespace

const Scenario kExtSurvey{"ext.survey", "EXT",
                          "RON / egress / DAPPER / in-network NN / seed "
                          "rotation survey",
                          declare_ext, run_ext};

}  // namespace intox::scenario
