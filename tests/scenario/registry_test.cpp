// The scenario table: every bench family is represented, names are
// unique and sorted, and knob declarations are well-formed.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace intox::scenario {
namespace {

TEST(Registry, EnumeratesAtLeastTwelveScenarios) {
  EXPECT_GE(all_scenarios().size(), 12u);
}

TEST(Registry, CoversEveryBenchFamily) {
  std::set<std::string> families;
  for (const Scenario* sc : all_scenarios()) {
    families.insert(sc->family);
  }
  for (const char* family :
       {"FIG2", "BLINK-TR", "BLINK-E2E", "PCC-OSC", "PCC-FLEET",
        "PYTH-QOE", "PYTH-CDN", "SKETCH", "SPPIFO", "NETHIDE", "DEFENSE",
        "EXT"}) {
    EXPECT_TRUE(families.count(family)) << "missing family " << family;
  }
}

TEST(Registry, CoversTheExampleWalkthroughs) {
  for (const char* name : {"quickstart", "attack.synthesis"}) {
    EXPECT_NE(find_scenario(name), nullptr)
        << "missing scenario " << name;
  }
}

TEST(Registry, AllIsSortedAndUnique) {
  const auto all = all_scenarios();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(Registry, FindReturnsNullForUnknownName) {
  EXPECT_EQ(find_scenario("no.such.scenario"), nullptr);
}

TEST(Registry, EveryScenarioIsFullyDeclared) {
  for (const Scenario* sc : all_scenarios()) {
    EXPECT_FALSE(sc->name.empty());
    EXPECT_FALSE(sc->family.empty());
    EXPECT_FALSE(sc->description.empty()) << sc->name;
    EXPECT_NE(sc->declare_knobs, nullptr) << sc->name;
    EXPECT_NE(sc->run, nullptr) << sc->name;
  }
}

TEST(Registry, KnobDeclarationsAreWellFormed) {
  for (const Scenario* sc : all_scenarios()) {
    KnobSet knobs;
    sc->declare_knobs(knobs);
    for (const Knob& k : knobs.all()) {
      EXPECT_FALSE(k.name.empty()) << sc->name;
      EXPECT_FALSE(k.help.empty()) << sc->name << "." << k.name;
      if (k.has_range && k.kind == KnobKind::kU64) {
        const double def = static_cast<double>(k.u);
        EXPECT_GE(def, k.min_value) << sc->name << "." << k.name;
        EXPECT_LE(def, k.max_value) << sc->name << "." << k.name;
      }
      if (k.has_range && k.kind == KnobKind::kDouble) {
        EXPECT_GE(k.d, k.min_value) << sc->name << "." << k.name;
        EXPECT_LE(k.d, k.max_value) << sc->name << "." << k.name;
      }
    }
  }
}

}  // namespace
}  // namespace intox::scenario
