// The scenario table. Each scenarios_*.cpp defines the Scenario
// constants declared below, and registry.cpp lists them all in name
// order; a new scenario adds its constant here and its row there.
#pragma once

#include <span>
#include <string_view>

#include "scenario/scenario.hpp"

namespace intox::scenario {

extern const Scenario kAttackSynthesis;
extern const Scenario kBlinkE2e;
extern const Scenario kBlinkFig2;
extern const Scenario kBlinkTrSweep;
extern const Scenario kDebugCrash;
extern const Scenario kDefenseGuards;
extern const Scenario kExtSurvey;
extern const Scenario kNethideTopology;
extern const Scenario kPccFleet;
extern const Scenario kPccOscillation;
extern const Scenario kPytheasCdn;
extern const Scenario kPytheasPoison;
extern const Scenario kQuickstart;
extern const Scenario kSketchPollution;
extern const Scenario kSppifoAdversarial;

/// Every scenario, sorted by name.
[[nodiscard]] std::span<const Scenario* const> all_scenarios();

/// The scenario called `name`, or null.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

}  // namespace intox::scenario
