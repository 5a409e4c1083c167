// PCC Allegro's default ("safe") utility function (Dong et al., NSDI'15):
//
//   u(x, L) = T * Sigmoid_alpha(L - 0.05) - x * L,    T = x * (1 - L)
//   Sigmoid_alpha(y) = 1 / (1 + e^(alpha * y)),       alpha = 100
//
// x is the sending rate, L the observed loss rate in a monitor interval.
// The sigmoid makes utility crash once loss exceeds 5%, bounding
// equilibrium loss.
//
// The §4.2 attacker knows this function (Kerckhoff) and uses
// `loss_for_target_utility` to compute exactly how much to drop in the
// higher-rate experiment phase so both phases look equally good. It
// runs the inversion once per (phase, MI rate, ε) change per sender,
// not per packet.
#pragma once

namespace intox::pcc {

struct UtilityParams {
  double alpha = 100.0;
  double loss_knee = 0.05;  // the 5% threshold inside the sigmoid
};

/// Utility of sending at rate x (bps) with loss fraction L in [0, 1].
double utility(double rate_bps, double loss,
               const UtilityParams& params = UtilityParams{});

/// Smallest loss L in [0, 1] such that utility(rate, L) <= target, or
/// 1.0 if even total loss cannot reach the target (it always can, since
/// u(x, 1) <= 0 <= u(x, 0) for x > 0 — kept for safety). Monotonicity of
/// u in L makes this a bisection.
double loss_for_target_utility(double rate_bps, double target_utility,
                               const UtilityParams& params = UtilityParams{});

}  // namespace intox::pcc
