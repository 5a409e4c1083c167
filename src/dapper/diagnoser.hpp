// DAPPER-style in-network TCP performance diagnosis (Ghasemi et al.,
// SOSR'17), as referenced by §3.2 of the paper:
//
//   "DAPPER relies on TCP information to determine if a connection is
//    limited by the sender, the network, or the receiver. An attacker
//    can implicate either of these three for performance problems by
//    manipulating TCP packets, and falsely trigger the recourses
//    suggested by the authors."
//
// The diagnoser passively watches both directions of a TCP connection
// from a vantage point in the network and classifies the current
// bottleneck per measurement window:
//   * kReceiverLimited — flight size pinned at the advertised window;
//   * kNetworkLimited  — retransmissions / high loss in the window;
//   * kSenderLimited   — sender not filling the window it was given;
//   * kHealthy         — none of the above dominates.
// The inputs are unauthenticated header fields (rwnd, seq, acks) and
// metadata — precisely what a MitM can rewrite.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace intox::dapper {

enum class Verdict {
  kHealthy,
  kSenderLimited,
  kNetworkLimited,
  kReceiverLimited,
};

const char* to_string(Verdict v);

struct DapperConfig {
  sim::Duration window = sim::seconds(1);
  /// Loss fraction above which the window is network-limited.
  double loss_threshold = 0.02;
  /// Flight/rwnd utilization above which the connection counts as
  /// receiver-limited (sender pushing against the advertised window).
  double rwnd_pressure_threshold = 0.9;
  /// Utilization below which the sender is simply not trying.
  double sender_idle_threshold = 0.5;
};

/// Per-window raw signals the verdict is derived from.
struct WindowStats {
  sim::Time start = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint32_t min_rwnd = 0;
  double mean_flight_bytes = 0.0;
  double rwnd_utilization = 0.0;
  Verdict verdict = Verdict::kHealthy;
};

class TcpDiagnoser {
 public:
  explicit TcpDiagnoser(const DapperConfig& config) : config_(config) {}

  /// Feed a data-direction packet (sender -> receiver).
  void on_data(const net::TcpHeader& tcp, std::uint32_t payload_bytes,
               sim::Time now);
  /// Feed an ack-direction packet (receiver -> sender) — carries the
  /// advertised receive window and cumulative ack.
  void on_ack(const net::TcpHeader& tcp, sim::Time now);

  [[nodiscard]] const std::vector<WindowStats>& windows() const {
    return windows_;
  }
  /// Fraction of closed windows carrying each verdict.
  [[nodiscard]] double verdict_fraction(Verdict v) const;

 private:
  void roll_window(sim::Time now);
  void classify(WindowStats& w) const;

  DapperConfig config_;
  // Connection state.
  std::uint32_t highest_seq_sent_ = 0;
  std::uint32_t highest_ack_ = 0;
  std::uint32_t last_rwnd_ = 65535;
  bool seq_seen_ = false;
  // Current window accumulation.
  WindowStats current_{};
  sim::RunningStats flight_samples_;
  sim::RunningStats utilization_samples_;
  bool window_open_ = false;
  std::vector<WindowStats> windows_;
};

}  // namespace intox::dapper
