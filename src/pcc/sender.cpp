#include "pcc/sender.hpp"

#include <algorithm>
#include <cmath>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "pcc/utility.hpp"

namespace intox::pcc {

namespace {

/// Peak-to-trough swing of the recorded per-MI rate signal relative to
/// its midpoint — the amplitude the §4.2 MitM drives up and the §5
/// supervisor is meant to bound. 0 for a flat or empty series.
double oscillation_amplitude(const sim::TimeSeries& rates) {
  if (rates.size() < 2) return 0.0;
  double lo = rates.points().front().second, hi = lo;
  for (const auto& [t, v] : rates.points()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double mid = (hi + lo) / 2.0;
  return mid > 0.0 ? (hi - lo) / mid : 0.0;
}

}  // namespace

PccSender::PccSender(sim::Scheduler& sched, const PccConfig& config,
                     net::FiveTuple flow, PacketSink sink)
    : sched_(sched), config_(config), flow_(flow), sink_(std::move(sink)),
      rng_(config.seed), rate_bps_(config.initial_rate_bps),
      base_rate_bps_(config.initial_rate_bps), epsilon_(config.epsilon_min),
      epsilon_cap_(config.epsilon_max),
      srtt_s_(sim::to_seconds(config.initial_rtt)) {
  send_ring_.reserve(kSendRingSize);
  send_ring_.emplace_back();
}

PccSender::~PccSender() {
  static obs::Counter& decisions =
      obs::Registry::global().counter("pcc.decisions");
  static obs::Counter& inconclusive =
      obs::Registry::global().counter("pcc.inconclusive_experiments");
  static obs::Counter& intervals =
      obs::Registry::global().counter("pcc.monitor_intervals");
  static obs::Gauge& amplitude =
      obs::Registry::global().gauge("pcc.rate_oscillation_amplitude_hwm");
  if (decisions_) decisions.add(decisions_);
  if (inconclusive_) inconclusive.add(inconclusive_);
  if (!history_.empty()) intervals.add(history_.size());
  amplitude.update_max(oscillation_amplitude(rate_series_));
}

void PccSender::start() {
  running_ = true;
  begin_mi(sched_.now());
  schedule_next_send();
}

void PccSender::stop() {
  running_ = false;
  if (send_event_.valid()) sched_.cancel(send_event_);
  if (mi_event_.valid()) sched_.cancel(mi_event_);
}

double PccSender::mi_duration_seconds() {
  return srtt_s_ * rng_.uniform(config_.mi_rtt_lo, config_.mi_rtt_hi);
}

std::vector<MiPhase> PccSender::make_experiment_order() {
  std::vector<MiPhase> order{MiPhase::kUp, MiPhase::kUp, MiPhase::kDown,
                             MiPhase::kDown};
  rng_.shuffle(order);
  return order;
}

void PccSender::begin_mi(sim::Time now) {
  if (!running_) return;

  MiPhase phase = MiPhase::kStarting;
  double rate = rate_bps_;
  switch (state_) {
    case State::kStarting:
      phase = MiPhase::kStarting;
      rate = rate_bps_;
      break;
    case State::kDecision: {
      if (need_new_experiment_) {
        experiment_order_ = make_experiment_order();
        experiment_index_ = 0;
        up_utilities_.clear();
        down_utilities_.clear();
        up_losses_.clear();
        down_losses_.clear();
        need_new_experiment_ = false;
      }
      if (experiment_index_ < experiment_order_.size()) {
        phase = experiment_order_[experiment_index_++];
        const double sign = (phase == MiPhase::kUp) ? 1.0 : -1.0;
        rate = base_rate_bps_ * (1.0 + sign * epsilon_);
      } else {
        // All four probes sent; hold the base rate until their results
        // come back (results lag by the ACK grace period).
        phase = MiPhase::kWaiting;
        rate = base_rate_bps_;
      }
      break;
    }
    case State::kAdjusting:
      phase = MiPhase::kAdjusting;
      rate = rate_bps_;
      break;
  }
  rate = std::clamp(rate, config_.min_rate_bps, config_.max_rate_bps);

  current_ = MonitorInterval{};
  current_.id = next_mi_id_++;
  current_.phase = phase;
  current_.rate_bps = rate;
  current_.start = now;
  const auto dur = sim::seconds(mi_duration_seconds());
  current_.end = now + dur;
  rate_series_.record(now, rate);

  mi_event_ = sched_.schedule_at(current_.end, [this] {
    // Close this MI, park it until the ACK grace period elapses, then
    // evaluate; meanwhile the next MI starts immediately.
    pending_mis_.push_back(current_);
    const auto grace = sim::seconds(srtt_s_ * config_.mi_grace_rtt);
    const std::uint64_t id = current_.id;
    sched_.schedule_after(grace, [this, id] {
      const auto it = std::find_if(
          pending_mis_.begin(), pending_mis_.end(),
          [id](const MonitorInterval& m) { return m.id == id; });
      if (it == pending_mis_.end()) return;
      const MonitorInterval mi = *it;
      pending_mis_.erase(it);
      finish_mi(mi);
    });
    begin_mi(sched_.now());
  });
}

void PccSender::send_packet() {
  if (!running_) return;
  net::Packet p;
  p.src = flow_.src;
  p.dst = flow_.dst;
  net::UdpHeader u;
  u.src_port = flow_.src_port;
  u.dst_port = flow_.dst_port;
  p.l4 = u;
  p.payload_bytes = config_.packet_payload_bytes;
  // Sequence number travels in flow_tag's low bits for simplicity of the
  // UDP framing (PCC runs its own sequencing above UDP).
  const std::uint32_t seq = next_seq_++;
  p.flow_tag = seq;
  const std::size_t slot = seq & (kSendRingSize - 1);
  const SendRecord rec{seq, current_.id, sched_.now()};
  if (slot < send_ring_.size()) {
    send_ring_[slot] = rec;
  } else {
    send_ring_.push_back(rec);
  }
  ++current_.sent;
  sink_(std::move(p));
  schedule_next_send();
}

void PccSender::schedule_next_send() {
  if (!running_) return;
  const double rate = std::max(current_.rate_bps, config_.min_rate_bps);
  const double bits =
      static_cast<double>(config_.packet_payload_bytes + 28) * 8.0;
  const auto gap = sim::seconds(bits / rate);
  send_event_ = sched_.schedule_after(gap, [this] { send_packet(); });
}

void PccSender::on_ack(std::uint32_t seq, sim::Time now) {
  const std::size_t slot = seq & (kSendRingSize - 1);
  if (slot >= send_ring_.size()) return;  // never sent
  SendRecord& rec = send_ring_[slot];
  if (rec.seq != seq) return;  // never sent, overwritten, or already acked
  const double sample = sim::to_seconds(now - rec.sent_at);
  srtt_s_ = 0.9 * srtt_s_ + 0.1 * sample;
  const std::uint64_t mi_id = rec.mi_id;
  rec = SendRecord{};  // duplicate ACKs miss from here on
  if (mi_id == current_.id) {
    ++current_.acked;
    return;
  }
  const auto p = std::find_if(
      pending_mis_.begin(), pending_mis_.end(),
      [mi_id](const MonitorInterval& m) { return m.id == mi_id; });
  if (p != pending_mis_.end()) ++p->acked;
}

void PccSender::finish_mi(MonitorInterval mi) {
  mi.evaluated = true;
  const double u = utility(mi.rate_bps, mi.loss(), config_.utility_params);
  utility_series_.record(mi.end, u);
  history_.push_back(mi);
  evaluate(mi, u);
}

void PccSender::enter_decision(sim::Time) {
  state_ = State::kDecision;
  need_new_experiment_ = true;
}

void PccSender::evaluate(const MonitorInterval& mi, double u) {
  switch (mi.phase) {
    case MiPhase::kStarting: {
      if (have_prev_utility_ && u < prev_utility_) {
        // Overshot: fall back to the last good rate and start learning.
        rate_bps_ = std::max(rate_bps_ / 2.0, config_.min_rate_bps);
        base_rate_bps_ = rate_bps_;
        epsilon_ = config_.epsilon_min;
        enter_decision(mi.end);
      } else if (state_ == State::kStarting) {
        prev_utility_ = u;
        have_prev_utility_ = true;
        rate_bps_ = std::min(rate_bps_ * 2.0, config_.max_rate_bps);
      }
      break;
    }
    case MiPhase::kWaiting:
      last_hold_loss_ = mi.loss();  // baseline path loss between probes
      break;
    case MiPhase::kUp:
      up_utilities_.push_back(u);
      up_losses_.push_back(mi.loss());
      break;
    case MiPhase::kDown:
      down_utilities_.push_back(u);
      down_losses_.push_back(mi.loss());
      break;
    case MiPhase::kAdjusting: {
      if (u < prev_utility_) {
        // Regression: stop moving, go back to experimenting.
        rate_bps_ = base_rate_bps_;
        epsilon_ = config_.epsilon_min;
        adjust_step_ = 1;
        enter_decision(mi.end);
      } else {
        prev_utility_ = u;
        base_rate_bps_ = rate_bps_;
        adjust_step_ = std::min(adjust_step_ + 1, 5);  // bounded acceleration
        // Rate-change amplitude honours the supervisor's epsilon cap too
        // ("limit the amplitude of the oscillations").
        const double step =
            std::min(static_cast<double>(adjust_step_) * config_.epsilon_min,
                     epsilon_cap_);
        rate_bps_ = std::clamp(
            rate_bps_ * (1.0 + static_cast<double>(direction_) * step),
            config_.min_rate_bps, config_.max_rate_bps);
      }
      break;
    }
  }

  // Completed a 2+2 experiment?
  if (state_ == State::kDecision && up_utilities_.size() >= 2 &&
      down_utilities_.size() >= 2) {
    const bool up_wins = up_utilities_[0] > down_utilities_[0] &&
                         up_utilities_[0] > down_utilities_[1] &&
                         up_utilities_[1] > down_utilities_[0] &&
                         up_utilities_[1] > down_utilities_[1];
    const bool down_wins = up_utilities_[0] < down_utilities_[0] &&
                           up_utilities_[0] < down_utilities_[1] &&
                           up_utilities_[1] < down_utilities_[0] &&
                           up_utilities_[1] < down_utilities_[1];
    if (observer_) {
      ExperimentOutcome outcome;
      outcome.up_loss_mean = (up_losses_[0] + up_losses_[1]) / 2.0;
      outcome.down_loss_mean = (down_losses_[0] + down_losses_[1]) / 2.0;
      outcome.hold_loss = last_hold_loss_;
      outcome.conclusive = up_wins || down_wins;
      outcome.epsilon = epsilon_;
      outcome.when = mi.end;
      observer_(outcome);
    }
    up_utilities_.clear();
    down_utilities_.clear();
    up_losses_.clear();
    down_losses_.clear();
    if (up_wins || down_wins) {
      ++decisions_;
      direction_ = up_wins ? 1 : -1;
      state_ = State::kAdjusting;
      adjust_step_ = 1;
      const double old_base_bps = base_rate_bps_;
      rate_bps_ = std::clamp(
          base_rate_bps_ *
              (1.0 + static_cast<double>(direction_) * epsilon_),
          config_.min_rate_bps, config_.max_rate_bps);
      base_rate_bps_ = rate_bps_;
      obs::flightrec_record(obs::FrType::kPccDecision,
                            static_cast<std::uint64_t>(mi.end),
                            up_wins ? 1 : 2,
                            static_cast<std::uint64_t>(old_base_bps),
                            static_cast<std::uint64_t>(rate_bps_));
      prev_utility_ = u;  // seed the adjusting phase with the latest sample
      epsilon_ = config_.epsilon_min;
    } else {
      // Inconclusive: widen the experiment, stay at the base rate. The
      // escalation ceiling is the configured epsilon_max unless the
      // supervisor has clamped it tighter.
      ++inconclusive_;
      epsilon_ = std::min({epsilon_ + config_.epsilon_min,
                           config_.epsilon_max, epsilon_cap_});
      rate_bps_ = base_rate_bps_;
      need_new_experiment_ = true;
      obs::flightrec_record(obs::FrType::kPccDecision,
                            static_cast<std::uint64_t>(mi.end), 0, 0,
                            static_cast<std::uint64_t>(rate_bps_));
    }
  }
}

}  // namespace intox::pcc
