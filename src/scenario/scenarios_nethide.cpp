// NetHide scenario (§4.3): honest vs obfuscated vs maliciously faked
// topology as seen by traceroute and a mapping prober. Ported verbatim
// from the pre-registry bench binary.
#include <string>

#include "nethide/obfuscate.hpp"
#include "scenario/registry.hpp"

namespace intox::scenario {
namespace {

void declare_nethide(KnobSet& knobs) {
  knobs.declare_double("accuracy_floor", 0.5,
                       "NetHide stops deviating below this accuracy", 0.0,
                       1.0);
}

void run_nethide(Ctx& ctx) {
  ctx.out.header("NETHIDE", "topology presented to traceroute: honest, "
                            "obfuscated, maliciously faked");

  const nethide::Topology topo = nethide::Topology::dumbbell();
  const nethide::PathTable honest =
      nethide::PathTable::all_shortest_paths(topo);

  nethide::ObfuscationConfig ocfg;
  ocfg.accuracy_floor = ctx.knobs.d("accuracy_floor");
  const auto defended = nethide::obfuscate(topo, ocfg);
  // The decoy shares node ids with reality, so it must match its size.
  const auto faked = nethide::present_fake_topology(
      topo, nethide::Topology::ring(topo.node_count()));

  ctx.out.row("%-14s %10s %10s %12s", "presentation", "accuracy",
              "utility", "max-density");
  ctx.out.row("%-14s %10.3f %10.3f %12zu", "honest", 1.0, 1.0,
              nethide::max_flow_density(honest));
  ctx.out.row("%-14s %10.3f %10.3f %12zu", "nethide", defended.accuracy,
              defended.utility, defended.presented_max_density);
  ctx.out.row("%-14s %10.3f %10.3f %12zu", "malicious", faked.accuracy,
              faked.utility, faked.presented_max_density);

  ctx.out.row();
  ctx.out.row("example traceroute 0 -> 7 under each presentation:");
  auto print_route = [&](const char* label,
                         const nethide::PathTable& table) {
    auto hops = nethide::traceroute(topo, table, 0, 7);
    std::string line;
    for (const auto& h : hops) line += " " + net::to_string(h.from);
    ctx.out.row("  %-10s%s", label, line.c_str());
  };
  print_route("honest", honest);
  print_route("nethide", defended.presented);
  print_route("malicious", faked.presented);

  // What a mapping prober concludes.
  const auto inferred_fake = nethide::infer_topology(topo, faked.presented);
  std::size_t phantom_links = 0;
  for (const nethide::Edge& e : inferred_fake.links()) {
    phantom_links += !topo.has_link(e.a, e.b);
  }

  ctx.out.row();
  ctx.out.row(
      "prober's map under the malicious decoy: %zu links, %zu phantom",
      inferred_fake.link_count(), phantom_links);

  ctx.out.claim(
      defended.presented_max_density < defended.physical_max_density,
      "NetHide hides the bottleneck (max apparent flow density "
      "drops) — the defensive use");
  ctx.out.claim(defended.accuracy > 0.8 && defended.utility > 0.5,
                "NetHide keeps traceroute mostly truthful (minimal "
                "lying)");
  ctx.out.claim(faked.accuracy < defended.accuracy - 0.1,
                "the malicious operator's decoy is far less faithful — "
                "same mechanism, opposite intent");
  ctx.out.claim(phantom_links > 0,
                "the prober's inferred map contains links that do not "
                "exist");
}

}  // namespace

const Scenario kNethideTopology{"nethide.topology", "NETHIDE",
                                "honest vs obfuscated vs maliciously faked "
                                "topology",
                                declare_nethide, run_nethide};

}  // namespace intox::scenario
