#include "trafficgen/driver.hpp"

#include <algorithm>

namespace intox::trafficgen {

LegitFlowDriver::LegitFlowDriver(sim::Scheduler& sched, sim::Rng rng,
                                 FlowSpec spec, PacketSink sink)
    : sched_(sched),
      rng_(rng),
      spec_(std::move(spec)),
      sink_(std::move(sink)) {}

net::Packet LegitFlowDriver::make_packet(std::uint32_t seq, bool fin) const {
  net::Packet p;
  p.src = spec_.tuple.src;
  p.dst = spec_.tuple.dst;
  net::TcpHeader tcp;
  tcp.src_port = spec_.tuple.src_port;
  tcp.dst_port = spec_.tuple.dst_port;
  tcp.seq = seq;
  tcp.ack_flag = true;
  tcp.fin = fin;
  p.l4 = tcp;
  p.payload_bytes = fin ? 0 : spec_.payload_bytes;
  p.flow_tag = spec_.id;
  return p;
}

void LegitFlowDriver::start() {
  pending_ = sched_.schedule_at(spec_.start, [this] { send_next(); });
}

void LegitFlowDriver::send_next() {
  if (finished_) return;
  const sim::Time end = spec_.start + spec_.duration;
  if (sched_.now() >= end) {
    sink_(make_packet(next_seq_, /*fin=*/true));
    finished_ = true;
    if (on_fin_) on_fin_();
    return;
  }
  last_sent_seq_ = next_seq_;
  sink_(make_packet(next_seq_));
  next_seq_ += spec_.payload_bytes;
  pending_ = sched_.schedule_after(
      rng_.exp_duration(spec_.pkt_interval), [this] { send_next(); });
}

void LegitFlowDriver::enter_failure_mode() {
  if (finished_ || failure_mode_) return;
  failure_mode_ = true;
  if (pending_.valid()) sched_.cancel(pending_);
  rto_ = sim::seconds(1);
  send_retransmission();
}

void LegitFlowDriver::send_retransmission() {
  if (finished_ || !failure_mode_) return;
  sink_(make_packet(last_sent_seq_));
  pending_ = sched_.schedule_after(rto_, [this] { send_retransmission(); });
  rto_ = std::min<sim::Duration>(rto_ * 2, sim::seconds(60));
}

void LegitFlowDriver::exit_failure_mode() {
  if (!failure_mode_) return;
  failure_mode_ = false;
  if (pending_.valid()) sched_.cancel(pending_);
  if (!finished_) {
    pending_ = sched_.schedule_after(
        rng_.exp_duration(spec_.pkt_interval), [this] { send_next(); });
  }
}

void LegitFlowDriver::stop() {
  finished_ = true;
  if (pending_.valid()) sched_.cancel(pending_);
}

MaliciousFlowDriver::MaliciousFlowDriver(sim::Scheduler& sched, sim::Rng rng,
                                         FlowSpec spec, PacketSink sink,
                                         Options options)
    : sched_(sched), rng_(rng), spec_(std::move(spec)),
      sink_(std::move(sink)), options_(options) {}

void MaliciousFlowDriver::start() {
  running_ = true;
  // Desynchronize across the botnet so the victim sees a steady
  // aggregate rather than pulses.
  const auto jitter = static_cast<sim::Duration>(
      rng_.uniform() * static_cast<double>(options_.send_period));
  pending_ = sched_.schedule_at(spec_.start + jitter, [this] { send_one(); });
}

void MaliciousFlowDriver::send_one() {
  if (!running_) return;
  net::Packet p;
  p.src = spec_.tuple.src;
  p.dst = spec_.tuple.dst;
  net::TcpHeader tcp;
  tcp.src_port = spec_.tuple.src_port;
  tcp.dst_port = spec_.tuple.dst_port;
  tcp.seq = seq_;
  tcp.ack_flag = true;
  p.l4 = tcp;
  p.payload_bytes = spec_.payload_bytes;
  p.flow_tag = spec_.id;
  sink_(std::move(p));

  if (++sends_of_current_seq_ >= options_.repeats_per_seq) {
    seq_ += spec_.payload_bytes;  // advance: the flow keeps looking alive
    sends_of_current_seq_ = 0;
  }
  pending_ =
      sched_.schedule_after(options_.send_period, [this] { send_one(); });
}

void MaliciousFlowDriver::stop() {
  running_ = false;
  if (pending_.valid()) sched_.cancel(pending_);
}

FlowPopulation::FlowPopulation(sim::Scheduler& sched, sim::Rng rng,
                               PacketSink sink)
    : sched_(sched), rng_(rng), sink_(std::move(sink)) {}

void FlowPopulation::add_legit(const FlowSpec& spec) {
  legit_.push_back(Legit{spec, next_fork_++});
}

void FlowPopulation::add_malicious(const FlowSpec& spec,
                                   MaliciousFlowDriver::Options options) {
  malicious_.emplace_back(sched_, rng_.fork(next_fork_++), spec, sink_,
                          options);
}

void FlowPopulation::start_all() {
  for (std::uint32_t i = 0; i < legit_.size(); ++i) {
    if (legit_[i].slot == kPending) arrivals_.push_back(i);
  }
  // (start, add order) is the order an eager start_all's start events
  // fire in; a start already past clamps to now, as schedule_at would.
  const sim::Time now = sched_.now();
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return std::max(legit_[a].spec.start, now) <
                            std::max(legit_[b].spec.start, now);
                   });
  first_ticket_ = sched_.reserve(legit_.size());
  schedule_arrival();
  for (auto& d : malicious_) d.start();
}

void FlowPopulation::schedule_arrival() {
  if (next_arrival_ == arrivals_.size()) return;
  const std::uint32_t flow = arrivals_[next_arrival_];
  arrival_ = sched_.schedule_reserved(legit_[flow].spec.start,
                                      first_ticket_ + flow,
                                      [this] { arrive(); });
}

void FlowPopulation::arrive() {
  const std::uint32_t flow = arrivals_[next_arrival_++];
  // The next arrival goes first, so a sink that fails or stops the
  // population from inside this flow's first packet cancels it.
  schedule_arrival();
  materialize(flow).send_next();
}

LegitFlowDriver& FlowPopulation::materialize(std::uint32_t flow) {
  Legit& f = legit_[flow];
  if (free_slots_.empty()) {
    f.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    f.slot = free_slots_.back();
    free_slots_.pop_back();
  }
  LegitFlowDriver& d = slots_[f.slot].emplace(sched_, rng_.fork(f.fork),
                                              f.spec, sink_);
  d.on_fin_ = [this, flow] {
    free_slots_.push_back(legit_[flow].slot);
    legit_[flow].slot = kDone;
  };
  return d;
}

void FlowPopulation::fail_all_legit() {
  sched_.cancel(arrival_);  // every flow still to arrive is failed below
  for (std::uint32_t i = 0; i < legit_.size(); ++i) {
    const std::uint32_t slot = legit_[i].slot;
    if (slot == kDone) continue;
    (slot == kPending ? materialize(i) : *slots_[slot]).enter_failure_mode();
  }
}

void FlowPopulation::stop_all() {
  sched_.cancel(arrival_);
  for (Legit& f : legit_) {
    if (f.slot != kPending && f.slot != kDone) slots_[f.slot]->stop();
    f.slot = kDone;
  }
  for (auto& d : malicious_) d.stop();
}

}  // namespace intox::trafficgen
