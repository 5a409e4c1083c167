// PCC convergence properties across bottleneck rates and seeds: the
// clean sender settles near the link rate with bounded wobble, and the
// attack effect holds at every operating point.
#include <gtest/gtest.h>

#include "pcc/experiment.hpp"

namespace intox::pcc {
namespace {

struct PccParam {
  double bottleneck_bps;
  std::uint64_t seed;
};

// Names the ctest entries (`…/10Mbps_seed1`) instead of gtest's
// default byte dump.
void PrintTo(const PccParam& param, std::ostream* os) {
  *os << param.bottleneck_bps / 1e6 << "Mbps_seed" << param.seed;
}

class PccSweep : public ::testing::TestWithParam<PccParam> {};

PccExperimentConfig config_for(const PccParam& p) {
  PccExperimentConfig cfg;
  cfg.bottleneck_bps = p.bottleneck_bps;
  // Queue sized to ~25 ms of the link rate; RED over its upper half.
  cfg.queue_limit_bytes =
      static_cast<std::uint32_t>(p.bottleneck_bps * 0.025 / 8.0);
  cfg.red_min_bytes = cfg.queue_limit_bytes / 8;
  cfg.red_max_bytes = cfg.queue_limit_bytes;
  cfg.duration = sim::seconds(60);
  cfg.seed = p.seed;
  return cfg;
}

TEST_P(PccSweep, CleanRunTracksBottleneck) {
  const auto r = run_pcc_experiment(config_for(GetParam()));
  const double ratio = r.mean_rate_bps / GetParam().bottleneck_bps;
  EXPECT_GT(ratio, 0.75) << "under-utilizing";
  EXPECT_LT(ratio, 1.35) << "overshooting";
  EXPECT_LT(r.rate_cv, 0.12);
}

TEST_P(PccSweep, AttackAlwaysDegrades) {
  auto cfg = config_for(GetParam());
  const auto clean = run_pcc_experiment(cfg);
  cfg.attack = true;
  const auto attacked = run_pcc_experiment(cfg);
  // At every operating point the attacked flow ends below the clean one
  // and oscillates at least as much.
  EXPECT_LT(attacked.mean_rate_bps, clean.mean_rate_bps);
  EXPECT_GT(attacked.rate_cv + 0.02, clean.rate_cv);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, PccSweep,
    ::testing::Values(PccParam{10e6, 1}, PccParam{20e6, 2},
                      PccParam{50e6, 3}, PccParam{20e6, 9}));

}  // namespace
}  // namespace intox::pcc
