// Point-to-point link model.
//
// A Link is unidirectional: it serializes packets at a configured rate,
// applies propagation delay, and drops when its drop-tail queue is full.
// Two hooks make it the substrate for the paper's attacker models:
//   * `set_tap` installs a man-in-the-middle interceptor that may inspect,
//     mutate, or drop each packet at ingress (§2.1 "MitM" privilege);
//   * `set_up(false)` injects a link failure (what Blink is meant to
//     detect — and what attackers fake).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace intox::sim {

struct LinkConfig {
  double rate_bps = 1e9;                        // serialization rate
  Duration prop_delay = kMillisecond;           // one-way propagation
  std::uint32_t queue_limit_bytes = 256 * 1024; // drop-tail threshold
  /// Optional RED-style AQM: drop probability ramps linearly from 0 at
  /// `red_min_bytes` of backlog to `red_max_prob` at `red_max_bytes`.
  /// red_min_bytes == 0 disables early drop (pure drop-tail).
  std::uint32_t red_min_bytes = 0;
  std::uint32_t red_max_bytes = 0;
  double red_max_prob = 0.1;
  /// Base seed of the link's RED drop stream. Each link forks this with
  /// its scheduler-assigned stream ordinal, so two links sharing the
  /// default seed still draw *independent* drop sequences — seeding the
  /// raw constant into every link made identical backlogs drop in
  /// lockstep across a topology, correlating losses that the paper's
  /// experiments treat as independent.
  std::uint64_t red_seed = 0x51ed;
};

enum class TapAction { kForward, kDrop };

class Link {
 public:
  using Sink = std::function<void(net::Packet)>;
  /// MitM interceptor: may mutate the packet; returning kDrop discards it.
  using Tap = std::function<TapAction(net::Packet&)>;

  Link(Scheduler& sched, LinkConfig config, Sink deliver)
      : sched_(sched), config_(config), deliver_(std::move(deliver)),
        red_rng_(Rng{config_.red_seed}.fork(sched_.next_stream_ordinal())) {
  }
  /// Publishes the lifetime counters (packets, bytes, drops by cause)
  /// into the obs metrics registry — one fold per link, zero cost on
  /// the per-packet path.
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueues a packet for transmission at the sender-side of the link.
  void transmit(net::Packet pkt);

  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Injects / repairs a link failure. While down, every packet is lost.
  void set_up(bool up) { up_ = up; }

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  /// Current queueing backlog, in bytes not yet serialized.
  [[nodiscard]] double backlog_bytes() const;

  struct Counters {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t dropped_queue = 0;
    std::uint64_t dropped_red = 0;
    std::uint64_t dropped_tap = 0;
    std::uint64_t dropped_down = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  Scheduler& sched_;
  LinkConfig config_;
  Sink deliver_;
  Tap tap_;
  bool up_ = true;
  Time next_free_ = 0;  // when the transmitter finishes its current backlog
  Counters counters_;
  Rng red_rng_;  // forked per link in the constructor

  struct InFlight {
    net::Packet pkt;
    Time arrival = 0;
    /// The sequence number an eager schedule_at would have used at
    /// transmit time (Scheduler::reserve).
    std::uint64_t ticket = 0;
  };
  /// Pops the head, arms the next delivery, then hands the packet over.
  void deliver_head();

  /// Packets between serialization and delivery, oldest first. A link
  /// delivers in send order: `next_free_` strictly grows and
  /// `prop_delay` is fixed, so arrivals strictly increase. The scheduler
  /// therefore holds one event per link, the head's delivery; the
  /// others wait here under reserved tickets and fire at the same
  /// (time, sequence) as one event per packet would. A power-of-two
  /// ring that doubles when full; it allocates nothing until the first
  /// transmit.
  std::vector<InFlight> in_flight_;
  std::size_t head_ = 0;    // ring index of the oldest in-flight packet
  std::size_t queued_ = 0;  // packets in flight
};

}  // namespace intox::sim
