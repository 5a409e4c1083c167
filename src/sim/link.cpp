#include "sim/link.hpp"

#include <algorithm>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::sim {

namespace {

void record_drop(obs::FrDropCause cause, const sim::Scheduler& sched,
                 const net::Packet& pkt) {
  obs::flightrec_record(obs::FrType::kLinkDrop,
                        static_cast<std::uint64_t>(sched.now()),
                        static_cast<std::uint64_t>(cause), pkt.dst.value(),
                        pkt.size_bytes());
}

}  // namespace

Link::~Link() {
  // Counter handles are resolved once per process; the destructor then
  // folds this link's totals with relaxed atomic adds. Totals are
  // per-trial work, so they are identical for any --threads.
  struct Handles {
    obs::Counter& tx_packets;
    obs::Counter& tx_bytes;
    obs::Counter& delivered;
    obs::Counter& dropped_queue;
    obs::Counter& dropped_red;
    obs::Counter& dropped_tap;
    obs::Counter& dropped_down;
  };
  static Handles h{
      obs::Registry::global().counter("sim.link.tx_packets"),
      obs::Registry::global().counter("sim.link.tx_bytes"),
      obs::Registry::global().counter("sim.link.delivered_packets"),
      obs::Registry::global().counter("sim.link.dropped_queue"),
      obs::Registry::global().counter("sim.link.dropped_red"),
      obs::Registry::global().counter("sim.link.dropped_tap"),
      obs::Registry::global().counter("sim.link.dropped_down"),
  };
  if (counters_.tx_packets) h.tx_packets.add(counters_.tx_packets);
  if (counters_.tx_bytes) h.tx_bytes.add(counters_.tx_bytes);
  if (counters_.delivered_packets) h.delivered.add(counters_.delivered_packets);
  if (counters_.dropped_queue) h.dropped_queue.add(counters_.dropped_queue);
  if (counters_.dropped_red) h.dropped_red.add(counters_.dropped_red);
  if (counters_.dropped_tap) h.dropped_tap.add(counters_.dropped_tap);
  if (counters_.dropped_down) h.dropped_down.add(counters_.dropped_down);
}

double Link::backlog_bytes() const {
  const Time now = sched_.now();
  if (next_free_ <= now) return 0.0;
  return to_seconds(next_free_ - now) * config_.rate_bps / 8.0;
}

void Link::transmit(net::Packet pkt) {
  INTOX_INVARIANT(config_.rate_bps > 0,
                  "link rate must be positive (got %g bps)",
                  config_.rate_bps);
  ++counters_.tx_packets;
  counters_.tx_bytes += pkt.size_bytes();

  if (!up_) {
    ++counters_.dropped_down;
    record_drop(obs::FrDropCause::kDown, sched_, pkt);
    return;
  }
  if (tap_ && tap_(pkt) == TapAction::kDrop) {
    ++counters_.dropped_tap;
    record_drop(obs::FrDropCause::kTap, sched_, pkt);
    return;
  }

  // Fluid drop-tail: the backlog is the time until the transmitter frees
  // up, expressed in bytes at line rate.
  const double backlog = backlog_bytes();
  if (backlog + pkt.size_bytes() >
      static_cast<double>(config_.queue_limit_bytes)) {
    ++counters_.dropped_queue;
    record_drop(obs::FrDropCause::kQueue, sched_, pkt);
    return;
  }

  // Optional RED early drop on the backlog ramp.
  if (config_.red_min_bytes > 0 && backlog > config_.red_min_bytes) {
    const double span = std::max<double>(
        1.0,
        static_cast<double>(config_.red_max_bytes) - config_.red_min_bytes);
    const double p = std::min(
        config_.red_max_prob,
        config_.red_max_prob * (backlog - config_.red_min_bytes) / span);
    if (red_rng_.bernoulli(p)) {
      ++counters_.dropped_red;
      record_drop(obs::FrDropCause::kRed, sched_, pkt);
      return;
    }
  }

  const Time now = sched_.now();
  const auto serialization = static_cast<Duration>(
      static_cast<double>(pkt.size_bytes()) * 8.0 / config_.rate_bps *
      static_cast<double>(kSecond));
  const Time start = std::max(now, next_free_);
  next_free_ = start + std::max<Duration>(serialization, 1);
  const Time arrival = next_free_ + config_.prop_delay;
  // The transmitter can only move forward in time; a regression here
  // means the serialization-time arithmetic overflowed (negative rate,
  // absurd packet size) and every later delivery time would be wrong.
  INTOX_INVARIANT(next_free_ > start && arrival > now,
                  "link time arithmetic went backwards: start=%lld "
                  "next_free=%lld arrival=%lld now=%lld",
                  static_cast<long long>(start),
                  static_cast<long long>(next_free_),
                  static_cast<long long>(arrival),
                  static_cast<long long>(now));

  if (queued_ == in_flight_.size()) {
    // Full (or never used): move the oldest packet to slot 0, then double.
    std::rotate(in_flight_.begin(), in_flight_.begin() + head_,
                in_flight_.end());
    head_ = 0;
    in_flight_.resize(std::max<std::size_t>(1, 2 * in_flight_.size()));
  }
  const std::size_t mask = in_flight_.size() - 1;
  InFlight& slot = in_flight_[(head_ + queued_) & mask];
  if (queued_ == 0) {
    sched_.schedule_at(arrival, [this] { deliver_head(); });
  } else {
    // Busy: the head's delivery arms this one in turn. The chain only
    // holds if arrivals keep send order.
    const Time tail = in_flight_[(head_ + queued_ - 1) & mask].arrival;
    INTOX_INVARIANT(arrival > tail,
                    "link delivery at %lld would not follow the ring's "
                    "tail at %lld", static_cast<long long>(arrival),
                    static_cast<long long>(tail));
    slot.ticket = sched_.reserve(1);
  }
  slot.pkt = std::move(pkt);
  slot.arrival = arrival;
  ++queued_;
}

void Link::deliver_head() {
  ++counters_.delivered_packets;
  // Take the packet out and arm the next delivery before delivering: the
  // sink may re-enter transmit(), which writes (or grows) the ring and,
  // once it is empty, schedules afresh.
  net::Packet delivered = std::move(in_flight_[head_].pkt);
  head_ = (head_ + 1) & (in_flight_.size() - 1);
  if (--queued_ > 0) {
    const InFlight& next = in_flight_[head_];
    sched_.schedule_reserved(next.arrival, next.ticket,
                             [this] { deliver_head(); });
  }
  deliver_(std::move(delivered));
}

}  // namespace intox::sim
