// SP-PIFO scenario (§3.2): scheduling quality under random vs
// adversarial rank arrival order, plus the queue-count ablation. Ported
// verbatim from the pre-registry bench binary.
#include <cstdint>

#include "scenario/registry.hpp"
#include "sppifo/attack.hpp"

namespace intox::scenario {
namespace {

void declare_sppifo(KnobSet& knobs) {
  const sppifo::RankWorkload def =
      sppifo::default_bench_workload(sppifo::ArrivalOrder::kUniformRandom);
  knobs.declare_u64("packets", def.packets, "packets per rank sequence", 1,
                    10000000);
  knobs.declare_u64("seed", 1, "rank-sequence seed for the order table");
  knobs.declare_u64("ablation_seed", 3,
                    "rank-sequence seed for the queue-count ablation");
}

void run_sppifo(Ctx& ctx) {
  const std::size_t packets = ctx.knobs.u("packets");
  auto run = [packets](sppifo::ArrivalOrder order, std::uint64_t seed) {
    sppifo::RankWorkload w = sppifo::default_bench_workload(order);
    w.packets = packets;
    sim::Rng rng{seed};
    const auto ranks = sppifo::generate_ranks(w, rng);
    return sppifo::run_scheduling_experiment(sppifo::ScheduleConfig{},
                                             ranks);
  };
  auto print = [&ctx](const char* label,
                      const sppifo::SchedulingResult& r) {
    ctx.out.row("%-14s %10llu %10llu %10llu %12llu %10.2f", label,
                static_cast<unsigned long long>(r.sp_dequeue_inversions),
                static_cast<unsigned long long>(r.sp_push_downs),
                static_cast<unsigned long long>(r.sp_drops),
                static_cast<unsigned long long>(r.sp_high_priority_drops),
                r.mean_rank_error);
  };

  ctx.out.header("SPPIFO", "SP-PIFO scheduling quality: random vs "
                           "adversarial rank order (same rank multiset)");

  ctx.out.row("%-14s %10s %10s %10s %12s %10s", "order", "inversions",
              "push-downs", "drops", "hi-pri drops", "rank-err");
  const std::uint64_t seed = ctx.knobs.u("seed");
  const auto uniform = run(sppifo::ArrivalOrder::kUniformRandom, seed);
  const auto drag = run(sppifo::ArrivalOrder::kDragAndBurst, seed);
  const auto saw = run(sppifo::ArrivalOrder::kSawtooth, seed);
  print("uniform", uniform);
  print("drag+burst", drag);
  print("sawtooth", saw);

  ctx.out.claim(uniform.sp_high_priority_drops == 0,
                "under the design's random-order assumption, no "
                "high-priority packet is ever dropped");
  ctx.out.claim(drag.sp_high_priority_drops > 20,
                "drag+burst forces drops of top-quartile (highest "
                "priority) packets");
  ctx.out.claim(saw.sp_push_downs > 3 * uniform.sp_push_downs,
                "sawtooth keeps the queue bounds permanently "
                "mis-calibrated (push-down storm)");
  ctx.out.claim(drag.mean_rank_error > 3.0 * uniform.mean_rank_error,
                "scheduling order diverges several-fold further from the "
                "ideal PIFO under attack");
  ctx.out.claim(uniform.pifo_high_priority_drops == 0 &&
                    drag.pifo_high_priority_drops == 0,
                "the ideal PIFO reference never drops high-priority "
                "packets under either order");

  // Ablation: number of strict-priority queues.
  ctx.out.row();
  ctx.out.row("ablation: queue count (drag+burst)");
  for (std::size_t queues : {2u, 4u, 8u, 16u, 32u}) {
    sppifo::RankWorkload w =
        sppifo::default_bench_workload(sppifo::ArrivalOrder::kDragAndBurst);
    w.packets = packets;
    sim::Rng rng{ctx.knobs.u("ablation_seed")};
    const auto ranks = sppifo::generate_ranks(w, rng);
    sppifo::ScheduleConfig cfg;
    cfg.sp.queues = queues;
    cfg.sp.per_queue_capacity = 128 / queues;  // fixed total buffer
    const auto r = sppifo::run_scheduling_experiment(cfg, ranks);
    ctx.out.row("  %2zu queues: rank-err %6.2f, hi-pri drops %llu", queues,
                r.mean_rank_error,
                static_cast<unsigned long long>(r.sp_high_priority_drops));
  }
  ctx.out.note("more queues approximate PIFO better in the benign case "
               "but the adversarial order still defeats the adaptation.");
}

}  // namespace

const Scenario kSppifoAdversarial{"sppifo.adversarial", "SPPIFO",
                                  "SP-PIFO scheduling quality under "
                                  "adversarial rank order",
                                  declare_sppifo, run_sppifo};

}  // namespace intox::scenario
