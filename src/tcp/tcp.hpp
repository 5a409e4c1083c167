// A compact but real TCP implementation over the simulator.
//
// Implements the behaviours the paper's systems key on:
//   * three-way handshake and FIN teardown;
//   * cumulative ACKs with duplicate-ACK generation at the receiver;
//   * Jacobson/Karels RTT estimation, exponential-backoff RTO
//     retransmission, and fast retransmit on three duplicate ACKs —
//     the genuine "failure signal" Blink listens for;
//   * Reno congestion control (slow start, AIMD, fast recovery simplified);
//   * receiver flow control via the advertised window — the signal
//     DAPPER reads (and attackers forge).
//
// One TcpSender transfers a byte stream to one TcpReceiver; both are
// plain packet-in/packet-out objects wired to sim::Links (or anything
// else) by the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"

namespace intox::tcp {

using PacketSink = std::function<void(net::Packet)>;

struct TcpConfig {
  std::uint32_t mss = 1448;
  std::uint32_t initial_cwnd_segments = 2;
  std::uint32_t initial_ssthresh_segments = 64;
  sim::Duration rto_min = sim::millis(200);
  sim::Duration rto_max = sim::seconds(60);
  sim::Duration initial_rto = sim::seconds(1);
  int dupack_threshold = 3;
};

enum class TcpState {
  kClosed,
  kSynSent,
  kEstablished,
  kFinSent,
  kDone,
};

const char* to_string(TcpState s);

class TcpSender {
 public:
  TcpSender(sim::Scheduler& sched, const TcpConfig& config,
            net::FiveTuple flow, PacketSink sink);

  /// Opens the connection and transfers `bytes` (0 = unbounded stream).
  void start(std::uint64_t bytes);
  void stop();

  /// Feed every packet arriving at the sender side (SYN-ACKs / ACKs).
  void on_packet(const net::Packet& pkt);

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] double cwnd_segments() const { return cwnd_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return acked_bytes_; }
  [[nodiscard]] double srtt_seconds() const { return srtt_s_; }

  struct Counters {
    std::uint64_t segments_sent = 0;
    std::uint64_t rto_retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;  // RTO expirations (incl. backoff repeats)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Ground-truth tag copied into every emitted packet.
  void set_flow_tag(std::uint64_t tag) { flow_tag_ = tag; }

 private:
  void send_syn();
  void try_send();
  void send_segment(std::uint32_t seq, bool retransmission);
  void arm_rto();
  void on_rto();
  void on_ack(std::uint32_t ack, std::uint16_t window);
  void enter_established();
  void maybe_finish();
  std::uint64_t bytes_in_flight() const {
    return next_seq_ - snd_una_;
  }

  sim::Scheduler& sched_;
  TcpConfig config_;
  net::FiveTuple flow_;
  PacketSink sink_;
  std::uint64_t flow_tag_ = 0;

  TcpState state_ = TcpState::kClosed;
  std::uint32_t iss_ = 1000;       // initial send sequence
  std::uint32_t snd_una_ = 0;      // lowest unacked seq
  std::uint32_t next_seq_ = 0;     // next new seq to send
  std::uint64_t goal_bytes_ = 0;   // 0 = unbounded
  std::uint32_t peer_window_ = 65535;
  std::uint64_t acked_bytes_ = 0;
  bool fin_sent_ = false;

  // Congestion control (units: segments, fractional for CA growth).
  double cwnd_ = 2.0;
  double ssthresh_ = 64.0;
  int dupacks_ = 0;
  // NewReno-style recovery: while snd_una < recover_seq, every partial
  // ACK retransmits the next hole immediately (multi-loss windows would
  // otherwise pay one RTO per hole).
  bool in_recovery_ = false;
  std::uint32_t recover_seq_ = 0;

  // RTT estimation / RTO.
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  bool have_rtt_ = false;
  sim::Duration rto_;
  sim::Timer rto_timer_;
  // seq -> (send time, was-retransmitted?)
  std::map<std::uint32_t, std::pair<sim::Time, bool>> send_times_;

  Counters counters_;
};

class TcpReceiver {
 public:
  TcpReceiver(sim::Scheduler& sched, const TcpConfig& config, PacketSink sink);

  /// Feed every packet arriving at the receiver side.
  void on_packet(const net::Packet& pkt);

  /// Advertised receive window (bytes); shrink it to emulate a slow
  /// receiver (the DAPPER "receiver-limited" ground truth).
  void set_advertised_window(std::uint16_t w) { rwnd_ = w; }

  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t dup_acks_sent() const { return dup_acks_; }
  [[nodiscard]] bool saw_fin() const { return saw_fin_; }

 private:
  void send_ack(const net::Packet& cause, bool syn_ack);

  sim::Scheduler& sched_;
  TcpConfig config_;
  PacketSink sink_;
  std::uint32_t rcv_next_ = 0;  // next expected seq
  bool established_ = false;
  bool saw_fin_ = false;
  std::uint16_t rwnd_ = 65535;
  // seq -> (sequence-space length incl. FIN, payload bytes)
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      out_of_order_;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t dup_acks_ = 0;
  std::uint64_t flow_tag_ = 0;
};

}  // namespace intox::tcp
