// PCC Allegro sender: the online-learning rate-control loop.
//
// The sender paces UDP-like data packets at its current rate and slices
// time into monitor intervals (MIs). It learns by A/B experiment:
//
//  * Starting: double the rate every MI while utility keeps rising.
//  * Decision: four MIs — two at rate*(1+ε), two at rate*(1−ε), in
//    random order. If both +ε trials beat both −ε trials, move up; if
//    both lose, move down; otherwise the experiment is inconclusive and
//    ε grows by ε_min, capped at ε_max = 5%.
//  * Adjusting: keep moving in the decided direction with growing steps
//    while utility improves; on regression, return to Decision.
//
// Loss per MI is measured from ACKs after a grace period. This is the
// loop the §4.2 MitM neutralizes by equalizing what the two experiment
// arms observe.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "pcc/monitor.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace intox::pcc {

class PccSender {
 public:
  using PacketSink = std::function<void(net::Packet)>;

  PccSender(sim::Scheduler& sched, const PccConfig& config,
            net::FiveTuple flow, PacketSink sink);
  /// Publishes lifetime totals into the obs metrics registry: decision
  /// and inconclusive-experiment counts, and the rate-oscillation
  /// amplitude (the §4.2 attack signal) as a high-water gauge.
  ~PccSender();

  /// Starts pacing packets and running monitor intervals.
  void start();
  void stop();

  /// Feed an ACK for sequence number `seq` (from the receiver path).
  void on_ack(std::uint32_t seq, sim::Time now);

  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] double smoothed_rtt_seconds() const { return srtt_s_; }
  /// Rate at the start of every MI — the §4.2 oscillation signal.
  [[nodiscard]] const sim::TimeSeries& rate_series() const {
    return rate_series_;
  }
  [[nodiscard]] const sim::TimeSeries& utility_series() const {
    return utility_series_;
  }
  [[nodiscard]] const std::vector<MonitorInterval>& history() const {
    return history_;
  }
  [[nodiscard]] std::uint64_t inconclusive_experiments() const {
    return inconclusive_;
  }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

  /// Side-channel for the *omniscient* attacker model: exposes the
  /// current MI phase. A real MitM estimates this from timing; see
  /// PccMitm's estimator mode.
  [[nodiscard]] MiPhase current_phase() const { return current_.phase; }
  [[nodiscard]] double current_mi_rate() const { return current_.rate_bps; }

  /// Per-experiment summary, delivered to the §5 PCC supervisor as each
  /// 2+2 experiment resolves.
  struct ExperimentOutcome {
    double up_loss_mean = 0.0;
    double down_loss_mean = 0.0;
    /// Loss of the most recent hold (kWaiting) interval, i.e. the path's
    /// baseline loss outside experiments (-1 if none observed yet).
    double hold_loss = -1.0;
    bool conclusive = false;
    double epsilon = 0.0;
    sim::Time when = 0;
  };
  using ExperimentObserver = std::function<void(const ExperimentOutcome&)>;
  void set_experiment_observer(ExperimentObserver obs) {
    observer_ = std::move(obs);
  }
  /// Clamps the epsilon escalation ceiling at runtime (supervisor
  /// action: "limit the amplitude of the oscillations by decreasing the
  /// range of epsilon").
  void set_epsilon_cap(double cap) {
    epsilon_cap_ = cap;
    epsilon_ = std::min(epsilon_, cap);
  }
  [[nodiscard]] double epsilon_cap() const { return epsilon_cap_; }

 private:
  enum class State { kStarting, kDecision, kAdjusting };

  void begin_mi(sim::Time now);
  void finish_mi(MonitorInterval mi);   // called after the grace period
  void evaluate(const MonitorInterval& mi, double utility_value);
  void send_packet();
  void schedule_next_send();
  double mi_duration_seconds();
  void enter_decision(sim::Time now);
  std::vector<MiPhase> make_experiment_order();

  sim::Scheduler& sched_;
  PccConfig config_;
  net::FiveTuple flow_;
  PacketSink sink_;
  sim::Rng rng_;

  State state_ = State::kStarting;
  double rate_bps_;
  double base_rate_bps_;  // rate around which the experiment runs
  double epsilon_;
  int adjust_step_ = 1;
  int direction_ = 0;  // +1 / -1 during kAdjusting
  double prev_utility_ = 0.0;
  bool have_prev_utility_ = false;

  // Decision experiment bookkeeping.
  std::vector<MiPhase> experiment_order_;
  std::size_t experiment_index_ = 0;
  bool need_new_experiment_ = true;
  std::vector<double> up_utilities_;
  std::vector<double> down_utilities_;
  std::vector<double> up_losses_;
  std::vector<double> down_losses_;
  double last_hold_loss_ = -1.0;
  ExperimentObserver observer_;
  double epsilon_cap_;

  MonitorInterval current_;
  std::uint64_t next_mi_id_ = 1;
  std::uint32_t next_seq_ = 1;
  /// Per-packet send records in a flat power-of-two ring indexed by
  /// seq & (kSendRingSize - 1). Sequence numbers are consecutive, so
  /// the ring always holds the most recent kSendRingSize sends; a
  /// record is cleared when its ACK arrives. Records of lost packets
  /// are overwritten one ring revolution (~32k packets) later — beyond
  /// any simulated ACK latency, so lookups behave exactly like the old
  /// per-seq hash maps (which additionally leaked lost-packet entries
  /// forever). The ring's 768 KiB are reserved at construction but
  /// filled in send order over the first revolution (slot 0, seq
  /// kSendRingSize's, starts empty); a slot past the end was never
  /// sent. Zeroing them up front made set-up of a 48-flow fleet fault
  /// in 37 MB, at a cost that depended on which pages the heap still
  /// held from earlier runs.
  struct SendRecord {
    std::uint32_t seq = 0;  // 0 = empty (sequence numbers start at 1)
    std::uint64_t mi_id = 0;
    sim::Time sent_at = 0;
  };
  static constexpr std::uint32_t kSendRingSize = 1u << 15;
  std::vector<SendRecord> send_ring_;
  /// MIs closed but awaiting their ACK grace period — a handful at a
  /// time, so a flat vector with linear scans beats hashing.
  std::vector<MonitorInterval> pending_mis_;

  double srtt_s_;
  bool running_ = false;
  sim::Scheduler::EventId send_event_;
  sim::Scheduler::EventId mi_event_;

  sim::TimeSeries rate_series_;
  sim::TimeSeries utility_series_;
  std::vector<MonitorInterval> history_;
  std::uint64_t inconclusive_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace intox::pcc
