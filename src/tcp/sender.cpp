#include "tcp/tcp.hpp"

#include <algorithm>

namespace intox::tcp {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "closed";
    case TcpState::kSynSent: return "syn-sent";
    case TcpState::kEstablished: return "established";
    case TcpState::kFinSent: return "fin-sent";
    case TcpState::kDone: return "done";
  }
  return "?";
}

TcpSender::TcpSender(sim::Scheduler& sched, const TcpConfig& config,
                     net::FiveTuple flow, PacketSink sink)
    : sched_(sched), config_(config), flow_(flow), sink_(std::move(sink)),
      cwnd_(config.initial_cwnd_segments),
      ssthresh_(config.initial_ssthresh_segments),
      rto_(config.initial_rto), rto_timer_(sched, [this] { on_rto(); }) {}

void TcpSender::start(std::uint64_t bytes) {
  goal_bytes_ = bytes;
  snd_una_ = iss_;
  next_seq_ = iss_;
  state_ = TcpState::kSynSent;
  send_syn();
}

void TcpSender::stop() {
  state_ = TcpState::kDone;
  rto_timer_.cancel();
}

void TcpSender::send_syn() {
  net::Packet p;
  p.src = flow_.src;
  p.dst = flow_.dst;
  net::TcpHeader t;
  t.src_port = flow_.src_port;
  t.dst_port = flow_.dst_port;
  t.seq = iss_;
  t.syn = true;
  p.l4 = t;
  p.flow_tag = flow_tag_;
  sink_(std::move(p));
  arm_rto();
}

void TcpSender::enter_established() {
  state_ = TcpState::kEstablished;
  snd_una_ = iss_ + 1;  // SYN consumes one sequence number
  next_seq_ = snd_una_;
  try_send();
}

void TcpSender::send_segment(std::uint32_t seq, bool retransmission) {
  net::Packet p;
  p.src = flow_.src;
  p.dst = flow_.dst;
  net::TcpHeader t;
  t.src_port = flow_.src_port;
  t.dst_port = flow_.dst_port;
  t.seq = seq;
  t.ack_flag = true;
  // FIN rides the last segment once all payload has been queued.
  const std::uint64_t offset = seq - (iss_ + 1);
  const bool is_last =
      goal_bytes_ > 0 && offset + config_.mss >= goal_bytes_;
  t.fin = is_last;
  p.l4 = t;
  const std::uint32_t remaining =
      goal_bytes_ > 0
          ? static_cast<std::uint32_t>(
                std::min<std::uint64_t>(config_.mss, goal_bytes_ - offset))
          : config_.mss;
  p.payload_bytes = remaining;
  p.flow_tag = flow_tag_;

  ++counters_.segments_sent;
  // Karn's rule: never sample RTT from retransmitted segments.
  send_times_[seq] = {sched_.now(), retransmission};
  if (is_last) fin_sent_ = true;
  sink_(std::move(p));
}

void TcpSender::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinSent) return;
  const auto cwnd_bytes =
      static_cast<std::uint64_t>(cwnd_ * static_cast<double>(config_.mss));
  const std::uint64_t window =
      std::min<std::uint64_t>(cwnd_bytes, peer_window_);

  while (bytes_in_flight() + config_.mss <= window) {
    const std::uint64_t offset = next_seq_ - (iss_ + 1);
    if (goal_bytes_ > 0 && offset >= goal_bytes_) break;  // stream done
    send_segment(next_seq_, false);
    const std::uint32_t len =
        goal_bytes_ > 0
            ? static_cast<std::uint32_t>(
                  std::min<std::uint64_t>(config_.mss, goal_bytes_ - offset))
            : config_.mss;
    next_seq_ += len;
    if (fin_sent_) {
      state_ = TcpState::kFinSent;
      break;
    }
  }
  if (bytes_in_flight() > 0 && !rto_timer_.armed()) arm_rto();
}

void TcpSender::arm_rto() { rto_timer_.arm_after(rto_); }

void TcpSender::on_rto() {
  if (state_ == TcpState::kDone || state_ == TcpState::kClosed) return;
  ++counters_.timeouts;

  if (state_ == TcpState::kSynSent) {
    rto_ = std::min<sim::Duration>(rto_ * 2, config_.rto_max);
    send_syn();
    return;
  }
  if (bytes_in_flight() == 0) return;

  // Classic timeout reaction: collapse to one segment, halve ssthresh,
  // back off the timer, retransmit the lowest unacked segment.
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_recovery_ = true;
  recover_seq_ = next_seq_;
  rto_ = std::min<sim::Duration>(rto_ * 2, config_.rto_max);
  ++counters_.rto_retransmits;
  send_segment(snd_una_, true);
  arm_rto();
}

void TcpSender::on_ack(std::uint32_t ack, std::uint16_t window) {
  peer_window_ = window;

  if (ack > snd_una_) {
    // New data acknowledged.
    const std::uint64_t newly = ack - snd_una_;
    acked_bytes_ += newly;

    // RTT sample from the oldest newly-acked, non-retransmitted segment.
    for (auto it = send_times_.begin();
         it != send_times_.end() && it->first < ack;) {
      if (!it->second.second) {
        const double sample = sim::to_seconds(sched_.now() - it->second.first);
        if (!have_rtt_) {
          srtt_s_ = sample;
          rttvar_s_ = sample / 2.0;
          have_rtt_ = true;
        } else {
          rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - sample);
          srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample;
        }
        const double rto_s = srtt_s_ + 4.0 * rttvar_s_;
        rto_ = std::clamp(sim::seconds(rto_s), config_.rto_min,
                          config_.rto_max);
      }
      it = send_times_.erase(it);
    }

    snd_una_ = ack;
    dupacks_ = 0;
    rto_timer_.cancel();

    if (in_recovery_) {
      if (snd_una_ < recover_seq_) {
        // Partial ACK: the next hole is at the new snd_una — retransmit
        // it right away (NewReno) instead of stalling for an RTO.
        ++counters_.fast_retransmits;
        send_segment(snd_una_, true);
        arm_rto();
        maybe_finish();
        return;
      }
      // Recovery complete.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly) / config_.mss;  // slow start
    } else {
      cwnd_ += static_cast<double>(newly) / config_.mss / cwnd_;  // CA
    }
    if (bytes_in_flight() > 0) arm_rto();
    maybe_finish();
    try_send();
    return;
  }

  // Duplicate ACK.
  if (ack == snd_una_ && bytes_in_flight() > 0) {
    ++dupacks_;
    if (dupacks_ == config_.dupack_threshold && !in_recovery_) {
      // Fast retransmit + (simplified) fast recovery.
      ssthresh_ = std::max(2.0, cwnd_ / 2.0);
      cwnd_ = ssthresh_;
      in_recovery_ = true;
      recover_seq_ = next_seq_;
      ++counters_.fast_retransmits;
      send_segment(snd_una_, true);
      arm_rto();
    }
  }
}

void TcpSender::maybe_finish() {
  if (state_ == TcpState::kFinSent && goal_bytes_ > 0 &&
      acked_bytes_ >= goal_bytes_ + 1) {  // +1 for the FIN
    state_ = TcpState::kDone;
    rto_timer_.cancel();
  }
}

void TcpSender::on_packet(const net::Packet& pkt) {
  const auto* t = pkt.tcp();
  if (!t) return;
  if (state_ == TcpState::kSynSent && t->syn && t->ack_flag &&
      t->ack == iss_ + 1) {
    rto_timer_.cancel();
    rto_ = config_.initial_rto;
    enter_established();
    return;
  }
  if (t->ack_flag &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kFinSent)) {
    on_ack(t->ack, t->window);
  }
}

}  // namespace intox::tcp
