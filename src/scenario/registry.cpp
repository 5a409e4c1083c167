#include "scenario/registry.hpp"

namespace intox::scenario {
namespace {

const Scenario* const kScenarios[] = {
    &kAttackSynthesis, &kBlinkE2e,        &kBlinkFig2,
    &kBlinkTrSweep,    &kDebugCrash,      &kDefenseGuards,
    &kExtSurvey,       &kNethideTopology, &kPccFleet,
    &kPccOscillation,  &kPytheasCdn,      &kPytheasPoison,
    &kQuickstart,      &kSketchPollution, &kSppifoAdversarial,
};

}  // namespace

std::span<const Scenario* const> all_scenarios() { return kScenarios; }

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario* sc : kScenarios) {
    if (sc->name == name) return sc;
  }
  return nullptr;
}

}  // namespace intox::scenario
