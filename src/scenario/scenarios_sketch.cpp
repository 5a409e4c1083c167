// Sketch-telemetry scenario (§3.2): Bloom-filter saturation, targeted
// false positives, FlowRadar decode destruction and LossRadar digest
// overflow. Ported verbatim from the pre-registry bench binary.
#include <cstdint>
#include <vector>

#include "net/hash.hpp"
#include "scenario/registry.hpp"
#include "sketch/attack.hpp"
#include "sketch/lossradar.hpp"

namespace intox::scenario {
namespace {

void declare_sketch(KnobSet& knobs) {
  knobs.declare_u64("cells", 4096, "Bloom filter size m in cells", 8,
                    1u << 24);
  knobs.declare_u64("hashes", 4, "Bloom filter hash count k", 1, 16);
  knobs.declare_u64("seed", 11, "public hash seed (Kerckhoff)");
}

void run_sketch(Ctx& ctx) {
  ctx.out.header("SKETCH", "polluting probabilistic telemetry structures");

  const std::size_t kCells = ctx.knobs.u("cells");
  const auto kHashes = static_cast<std::uint32_t>(ctx.knobs.u("hashes"));
  const auto kSeed = static_cast<std::uint32_t>(ctx.knobs.u("seed"));

  // Part 1: Bloom saturation — crafted vs random keys, equal counts.
  std::vector<std::uint64_t> legit;
  for (int i = 0; i < 400; ++i) legit.push_back(net::mix64(i + 1));

  ctx.out.row("Bloom filter m=%zu k=%u, 400 legitimate keys resident",
              kCells, kHashes);
  ctx.out.row("%8s | %10s %10s | %10s %10s", "attack", "rand fill",
              "rand FPR", "craft fill", "craft FPR");
  double crafted_fpr_mid = 0.0, random_fpr_mid = 0.0;
  double crafted_fpr_half_m = 0.0, random_fpr_half_m = 0.0;
  for (std::size_t keys : {256u, 512u, 1024u, 2048u}) {
    std::vector<std::uint64_t> random_keys;
    for (std::size_t i = 0; i < keys; ++i) {
      random_keys.push_back(net::mix64(0xabc000 + i));
    }
    const auto crafted =
        sketch::craft_saturating_keys(kCells, kHashes, kSeed, keys);
    const auto r1 = sketch::run_bloom_pollution(kCells, kHashes, kSeed,
                                                legit, random_keys);
    const auto r2 = sketch::run_bloom_pollution(kCells, kHashes, kSeed,
                                                legit, crafted);
    ctx.out.row("%8zu | %9.3f %9.3f%% | %9.3f %9.3f%%", keys,
                r1.fill_after, r1.fpr_after * 100.0, r2.fill_after,
                r2.fpr_after * 100.0);
    if (keys == 1024) {
      crafted_fpr_mid = r2.fpr_after;
      random_fpr_mid = r1.fpr_after;
    }
    if (keys == 2048) {
      crafted_fpr_half_m = r2.fpr_after;
      random_fpr_half_m = r1.fpr_after;
    }
  }
  ctx.out.claim(crafted_fpr_mid > 2.0 * random_fpr_mid,
                "crafted keys inflate the false-positive rate >2x faster "
                "than random traffic at equal insert counts (evil "
                "choices)");
  ctx.out.claim(crafted_fpr_half_m > 0.99 && random_fpr_half_m < 0.8,
                "m/2 crafted keys fully saturate the filter (FPR = 1) "
                "while random keys leave it far from saturated");

  // Part 2: targeted false positives.
  const auto fps =
      sketch::find_false_positive_keys(kCells, kHashes, kSeed, legit, 10);
  ctx.out.row();
  ctx.out.row("targeted collisions found offline: %zu keys the filter "
              "will falsely report as members",
              fps.size());
  ctx.out.claim(!fps.empty(),
                "attacker can manufacture specific false positives "
                "(public hash functions, Kerckhoff)");

  // Part 3: FlowRadar decode destruction.
  ctx.out.row();
  ctx.out.row("FlowRadar coded table: 1024 cells, 200 legitimate flows");
  ctx.out.row("%12s | %10s %12s %12s", "attack flows", "decode ok",
              "flows out", "stuck cells");
  sketch::FlowRadarConfig frcfg;
  bool before_ok = false, after_broken = false;
  for (std::size_t attack : {0u, 400u, 800u, 1600u, 3200u}) {
    const auto r = sketch::run_flowradar_overflow(frcfg, 200, attack);
    ctx.out.row("%12zu | %10s %12zu %12zu", attack,
                r.decode_complete_after ? "yes" : "NO",
                r.decoded_flows_after, r.stuck_cells_after);
    if (attack == 0) before_ok = r.decode_complete_after;
    if (attack == 1600) after_broken = !r.decode_complete_after;
  }
  ctx.out.claim(before_ok, "well-dimensioned FlowRadar decodes perfectly");
  ctx.out.claim(after_broken,
                "single-packet flow spraying destroys the telemetry batch "
                "(decode stalls)");

  // Part 4: LossRadar digest overflow.
  sketch::LossRadarConfig lrcfg;
  sketch::LossRadar up{lrcfg}, down{lrcfg};
  for (std::uint64_t i = 1; i <= 400; ++i) {
    const auto id = net::mix64(i);
    up.add(id);
    if (i % 40 != 0) down.add(id);  // 10 genuine losses
  }
  const auto small_loss = up.diff_decode(down);
  sketch::LossRadar up2{lrcfg}, down2{lrcfg};
  for (std::uint64_t i = 1; i <= 4000; ++i) up2.add(net::mix64(i));
  const auto flood = up2.diff_decode(down2);
  ctx.out.row();
  ctx.out.row("LossRadar (256 cells): 10 genuine losses -> decode %s, "
              "%zu ids recovered",
              small_loss.complete() ? "ok" : "STALLED",
              small_loss.lost.size());
  ctx.out.row("LossRadar under loss flood (4000 losses) -> decode %s",
              flood.complete() ? "ok" : "STALLED");
  ctx.out.claim(small_loss.complete() && small_loss.lost.size() == 10,
                "LossRadar pinpoints every genuine loss in the benign "
                "case");
  ctx.out.claim(!flood.complete(),
                "an attacker-inflated loss batch overflows the digest and "
                "blinds the loss telemetry");
}

}  // namespace

const Scenario kSketchPollution{"sketch.pollution", "SKETCH",
                                "polluting probabilistic telemetry structures",
                                declare_sketch, run_sketch};

}  // namespace intox::scenario
