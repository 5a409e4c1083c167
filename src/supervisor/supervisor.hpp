// §5 countermeasure framework: the driver/supervisor architecture.
//
// "A driver drives the network while a supervisor supervises the driver
// and determines the directions in which it can move. The key idea is
// to not rely solely on data-plane signals but to have an additional
// feedback loop that checks the plausibility of the signals."  (Fig. 3)
//
// This header holds the vocabulary the guards share: every guard counts
// its judgements in GuardStats, and BlinkRtoGuard returns each one as
// an Assessment. The guards in this module cover the paper's three case
// studies:
//   * BlinkRtoGuard    — intervention point I/III: input plausibility.
//   * PytheasGuard     — intervention point I: input quality filtering.
//   * PccGuard         — intervention point III/IV: constrained range.
// input_quality.hpp adds the generic point-I building blocks (voting
// over independent signals, active-probe verification).
#pragma once

#include <string>

namespace intox::supervisor {

enum class Verdict { kAllow, kDeny };

struct Assessment {
  Verdict verdict = Verdict::kAllow;
  /// Estimated probability the driver is "under the influence".
  double risk = 0.0;
  std::string reason;

  [[nodiscard]] bool allowed() const { return verdict == Verdict::kAllow; }
};

struct GuardStats {
  std::uint64_t assessed = 0;
  std::uint64_t denied = 0;
};

}  // namespace intox::supervisor
