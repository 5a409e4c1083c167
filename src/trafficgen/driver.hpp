// Packet-level flow drivers.
//
// A driver turns a FlowSpec into a scheduled packet stream feeding a sink
// (usually a host's egress link, or a Blink pipeline directly).
//
//  * LegitFlowDriver sends fresh in-order TCP segments for the flow's
//    lifetime, then a FIN. On `enter_failure_mode()` it starts
//    retransmitting its last segment with exponential RTO backoff — the
//    genuine signal Blink listens for.
//  * MaliciousFlowDriver implements the §3.1 attacker: it stays active
//    forever and emits back-to-back duplicate-sequence segments every
//    period, so any cell it occupies both never expires and always looks
//    like it is retransmitting. No TCP handshake is ever performed,
//    matching the paper's observation that none is needed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "trafficgen/flow.hpp"

namespace intox::trafficgen {

using PacketSink = std::function<void(net::Packet)>;

class LegitFlowDriver {
 public:
  LegitFlowDriver(sim::Scheduler& sched, sim::Rng rng, FlowSpec spec,
                  PacketSink sink);

  /// Schedules the flow's first packet at spec.start.
  void start();
  /// Switches to RTO-driven retransmission of the last segment (a real
  /// path failure as seen from the sender).
  void enter_failure_mode();
  /// Returns to normal transmission (path repaired).
  void exit_failure_mode();
  void stop();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const FlowSpec& spec() const { return spec_; }

 private:
  // FlowPopulation's arrival event stands in for start()'s: it calls
  // send_next itself and sets on_fin_ to take the driver's slot back.
  friend class FlowPopulation;

  void send_next();
  void send_retransmission();
  net::Packet make_packet(std::uint32_t seq, bool fin = false) const;

  sim::Scheduler& sched_;
  sim::Rng rng_;
  FlowSpec spec_;
  PacketSink sink_;
  std::function<void()> on_fin_;  // runs right after the FIN is sent
  std::uint32_t next_seq_ = 1000;
  std::uint32_t last_sent_seq_ = 1000;
  sim::Duration rto_ = sim::seconds(1);
  bool failure_mode_ = false;
  bool finished_ = false;
  sim::Scheduler::EventId pending_;
};

class MaliciousFlowDriver {
 public:
  struct Options {
    /// Gap between consecutive segments. Every segment is a fresh chance
    /// to capture a freed selector cell, so the attacker spaces them
    /// evenly (back-to-back duplicates would halve the capture rate) and
    /// keeps the gap well below the victim's 2 s eviction timeout.
    sim::Duration send_period = sim::millis(250);
    /// Each sequence number is sent this many times (on consecutive
    /// sends) before advancing; >= 2 makes every pair look retransmitted.
    int repeats_per_seq = 2;
  };

  MaliciousFlowDriver(sim::Scheduler& sched, sim::Rng rng, FlowSpec spec,
                      PacketSink sink, Options options);
  MaliciousFlowDriver(sim::Scheduler& sched, sim::Rng rng, FlowSpec spec,
                      PacketSink sink)
      : MaliciousFlowDriver(sched, rng, std::move(spec), std::move(sink),
                            Options{}) {}

  void start();
  void stop();

  [[nodiscard]] const FlowSpec& spec() const { return spec_; }

 private:
  void send_one();

  sim::Scheduler& sched_;
  sim::Rng rng_;
  FlowSpec spec_;
  PacketSink sink_;
  Options options_;
  std::uint32_t seq_ = 5000;
  int sends_of_current_seq_ = 0;
  bool running_ = false;
  sim::Scheduler::EventId pending_;
};

/// Owns and runs a whole population of drivers — the shape every Blink
/// experiment uses.
///
/// A legitimate flow's driver, and its Rng fork, exists only while the
/// flow is live (a Fig. 2 trial has ~124k flows but ~2.1k live at once).
/// add_legit stores the spec and the flow's fork index; start_all
/// reserves one scheduler ticket per legitimate flow and schedules one
/// arrival event, for the first flow in (start, add) order. The arrival
/// builds that flow's driver in a recycled slot, schedules the next
/// arrival and sends the flow's first packet; the driver hands its slot
/// back when it sends its FIN. The ticket of flow i is the sequence
/// number an eager start_all gives flow i's start event, so every event
/// keeps its same-instant order and each driver sees the same stream:
/// the packets are exactly those of building every driver up front.
/// Malicious flows never finish, so their drivers are built eagerly.
class FlowPopulation {
 public:
  FlowPopulation(sim::Scheduler& sched, sim::Rng rng, PacketSink sink);
  FlowPopulation(const FlowPopulation&) = delete;  // closures hold `this`
  FlowPopulation& operator=(const FlowPopulation&) = delete;

  void add_legit(const FlowSpec& spec);
  void add_malicious(const FlowSpec& spec,
                     MaliciousFlowDriver::Options options);
  void add_malicious(const FlowSpec& spec) {
    add_malicious(spec, MaliciousFlowDriver::Options{});
  }
  /// Starts every flow added so far. Call once, after the last add_*.
  void start_all();
  /// Puts every unfinished legitimate flow into failure mode, in add
  /// order. That includes flows whose start is still ahead: each is
  /// built now, sends a retransmission of its first sequence number
  /// (1000) at once and keeps retransmitting it with RTO backoff, never
  /// sending fresh data.
  void fail_all_legit();
  /// Stops every flow: none sends a packet or arrives afterwards.
  void stop_all();

  [[nodiscard]] std::size_t legit_count() const { return legit_.size(); }
  [[nodiscard]] std::size_t malicious_count() const {
    return malicious_.size();
  }

 private:
  static constexpr std::uint32_t kPending = UINT32_MAX;   // not arrived
  static constexpr std::uint32_t kDone = UINT32_MAX - 1;  // FIN or stop

  struct Legit {
    FlowSpec spec;
    std::uint64_t fork = 0;         // Rng fork index, in add order
    std::uint32_t slot = kPending;  // its driver's slot once arrived
  };

  void schedule_arrival();
  void arrive();
  /// Builds flow `flow`'s driver in a free slot.
  LegitFlowDriver& materialize(std::uint32_t flow);

  sim::Scheduler& sched_;
  sim::Rng rng_;
  PacketSink sink_;
  std::uint64_t next_fork_ = 0;
  std::vector<Legit> legit_;             // add order
  std::vector<std::uint32_t> arrivals_;  // legit_ indices, arrival order
  std::size_t next_arrival_ = 0;
  std::uint64_t first_ticket_ = 0;
  sim::Scheduler::EventId arrival_;  // stale once the last one fired
  // Driver slots: the deque keeps addresses stable (a driver's scheduled
  // closures capture `this`); a finished driver's slot is reused.
  std::deque<std::optional<LegitFlowDriver>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::deque<MaliciousFlowDriver> malicious_;
};

}  // namespace intox::trafficgen
