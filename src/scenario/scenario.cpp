#include "scenario/scenario.hpp"

#include <utility>

namespace intox::scenario {

void Ctx::perf(const char* sweep) const { perf(sweep, runner.last_report()); }

void Ctx::perf(const char* sweep, sim::RunReport report) const {
  report.name = sweep;
  session_.record_sweep(std::move(report));
}

}  // namespace intox::scenario
