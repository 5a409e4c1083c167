// NetHide obfuscation properties across topology families: presented
// paths stay plausible, metrics stay in range, density never increases.
#include <gtest/gtest.h>

#include "nethide/obfuscate.hpp"
#include "sim/rng.hpp"

namespace intox::nethide {
namespace {

enum class Family { kGrid, kRing, kLeafSpine, kRandom };

struct TopoParam {
  Family family;
  std::size_t size;
};

// Names the ctest entries (`…/grid_3`); gtest's default byte dump would
// include the struct's uninitialized padding.
void PrintTo(const TopoParam& param, std::ostream* os) {
  static constexpr const char* kNames[] = {"grid", "ring", "leaf_spine",
                                           "random"};
  *os << kNames[static_cast<int>(param.family)] << "_" << param.size;
}

Topology build(const TopoParam& param) {
  switch (param.family) {
    case Family::kGrid:
      return Topology::grid(param.size, param.size);
    case Family::kRing:
      return Topology::ring(param.size);
    case Family::kLeafSpine:
      return Topology::leaf_spine(2, param.size);
    case Family::kRandom: {
      // Connected random graph: ring + chords.
      Topology t = Topology::ring(param.size);
      sim::Rng rng{param.size};
      for (std::size_t i = 0; i < param.size; ++i) {
        t.add_link(static_cast<NodeId>(rng.uniform_int(0, param.size - 1)),
                   static_cast<NodeId>(rng.uniform_int(0, param.size - 1)));
      }
      return t;
    }
  }
  return Topology{1};
}

class NethideProperties : public ::testing::TestWithParam<TopoParam> {};

TEST_P(NethideProperties, ObfuscationInvariants) {
  const Topology topo = build(GetParam());
  ASSERT_TRUE(topo.connected());
  const auto r = obfuscate(topo, ObfuscationConfig{});

  // Metrics in range.
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_GE(r.utility, 0.0);
  EXPECT_LE(r.utility, 1.0);

  // Density never increased by obfuscation.
  EXPECT_LE(r.presented_max_density, r.physical_max_density);

  // Every presented path is a real, endpoint-correct path.
  for (NodeId s = 0; s < r.presented.nodes(); ++s) {
    for (NodeId d = 0; d < r.presented.nodes(); ++d) {
      if (s == d) continue;
      const Path& p = r.presented.get(s, d);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), d);
      EXPECT_TRUE(topo.is_valid_path(p));
    }
  }
}

TEST_P(NethideProperties, TracerouteConsistentWithPresentedTable) {
  const Topology topo = build(GetParam());
  const auto r = obfuscate(topo, ObfuscationConfig{});
  for (NodeId s = 0; s < std::min<std::size_t>(r.presented.nodes(), 4); ++s) {
    for (NodeId d = 0; d < r.presented.nodes(); ++d) {
      if (s == d) continue;
      const auto hops = traceroute(topo, r.presented, s, d);
      const Path& p = r.presented.get(s, d);
      ASSERT_EQ(hops.size() + 1, p.size());
      for (std::size_t k = 0; k < hops.size(); ++k) {
        EXPECT_EQ(hops[k].from, topo.addr(p[k + 1]));
      }
    }
  }
}

TEST_P(NethideProperties, InferredTopologyIsSubgraphOfPresentedLinks) {
  const Topology topo = build(GetParam());
  const auto r = obfuscate(topo, ObfuscationConfig{});
  const Topology inferred = infer_topology(topo, r.presented);
  // NetHide presents only physically-valid paths, so the prober's map is
  // a subgraph of the real topology (unlike the malicious decoy).
  for (const Edge& e : inferred.links()) {
    EXPECT_TRUE(topo.has_link(e.a, e.b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NethideProperties,
    ::testing::Values(TopoParam{Family::kGrid, 3}, TopoParam{Family::kGrid, 4},
                      TopoParam{Family::kRing, 8},
                      TopoParam{Family::kLeafSpine, 6},
                      TopoParam{Family::kRandom, 12}));

}  // namespace
}  // namespace intox::nethide
