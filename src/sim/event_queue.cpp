#include "sim/event_queue.hpp"

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "validate/invariant.hpp"
#include "validate/oracles.hpp"

namespace intox::sim {

namespace {

// EventId <-> wheel handle. Slab slot in the low 32 bits (+1 so a
// default-constructed id stays invalid), generation above. Generations
// start at 1, so a live event's value is never 0.
Scheduler::EventId encode_id(TimingWheel::Ref ref) {
  return Scheduler::EventId{
      (static_cast<std::uint64_t>(ref.gen) << 32) |
      (static_cast<std::uint64_t>(ref.index) + 1)};
}

TimingWheel::Ref decode_id(Scheduler::EventId id) {
  return TimingWheel::Ref{
      static_cast<std::uint32_t>((id.value & 0xffffffffull) - 1),
      static_cast<std::uint32_t>(id.value >> 32)};
}

}  // namespace

Scheduler::Scheduler() = default;

Scheduler::~Scheduler() {
  // Retirement-time accounting: a single fold into the registry per
  // scheduler lifetime instead of per event. Totals are sums of what
  // each (deterministically seeded) trial processed, so they fold to
  // the same values for any --threads.
  static obs::Counter& processed_counter =
      obs::Registry::global().counter("sim.scheduler.events_processed");
  static obs::Counter& moves_counter =
      obs::Registry::global().counter("sim.scheduler.wheel_moves");
  static obs::Gauge& depth_gauge =
      obs::Registry::global().gauge("sim.scheduler.queue_depth_hwm");
  if (processed_ > 0) processed_counter.add(processed_);
  if (wheel_.moves() > 0) moves_counter.add(wheel_.moves());
  if (depth_hwm_ > 0) {
    depth_gauge.update_max(static_cast<double>(depth_hwm_));
  }
}

void Scheduler::enable_oracle() {
  if (oracle_) return;
  INTOX_INVARIANT(pending() == 0,
                  "oracle attached to a scheduler with %zu pending events "
                  "(the mirror starts empty)", pending());
  oracle_ = std::make_unique<validate::SchedulerOracle>(wheel_.next_seq());
}

Scheduler::EventId Scheduler::schedule(Time t,
                                       std::optional<std::uint64_t> ticket,
                                       Callback&& cb) {
  INTOX_INVARIANT(static_cast<bool>(cb),
                  "null callback scheduled at t=%lld would crash at fire "
                  "time", static_cast<long long>(t));
  if (t < now_) t = now_;
  const EventId id = encode_id(
      ticket ? wheel_.insert_reserved(t, *ticket, std::move(cb))
             : wheel_.insert(t, std::move(cb)));
  if (oracle_) oracle_->mirror_schedule(t, id.value, pending(), ticket);
  if (const std::size_t depth = pending(); depth > depth_hwm_) {
    depth_hwm_ = depth;
  }
  return id;
}

std::uint64_t Scheduler::reserve(std::uint64_t n) {
  const std::uint64_t first = wheel_.reserve(n);
  if (oracle_) oracle_->mirror_reserve(first, n);
  return first;
}

Scheduler::EventId Scheduler::schedule_after(Duration d, Callback cb) {
  if (d < 0) d = 0;
  // now_ + d would wrap for huge delays, scheduling the event in the
  // deep past.
  INTOX_INVARIANT(d <= kTimeMax - now_,
                  "schedule_after overflow: now=%lld + d=%lld exceeds the "
                  "time horizon",
                  static_cast<long long>(now_), static_cast<long long>(d));
  return schedule_at(now_ + d, std::move(cb));
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const bool erased = wheel_.erase(decode_id(id));
  if (oracle_) oracle_->mirror_cancel(id.value, erased, pending());
  return erased;
}

bool Scheduler::fire_next(Time bound) {
  Callback cb;
  Time t = 0;
  TimingWheel::Ref ref;
  if (!wheel_.pop_min_until(bound, cb, t, &ref)) return false;
  // The wheel must hand back events in non-decreasing time order; a
  // violation means bucket corruption (or an externally-forced clock)
  // and every subsequent timestamp would be wrong.
  INTOX_INVARIANT(t >= now_,
                  "scheduler time went backwards: popped t=%lld with "
                  "now=%lld", static_cast<long long>(t),
                  static_cast<long long>(now_));
  INTOX_INVARIANT(static_cast<bool>(cb),
                  "live wheel event id=%llu has no callback (slab "
                  "bookkeeping corruption)",
                  static_cast<unsigned long long>(encode_id(ref).value));
  if (oracle_) oracle_->mirror_fire(encode_id(ref).value, t, pending());
  if (t > now_) now_ = t;
  // Hottest record site in the repo: one enabled-check + five relaxed
  // stores, guarded by the blink.e2e perf-gate baseline.
  obs::flightrec_record(obs::FrType::kSchedFire,
                        static_cast<std::uint64_t>(t));
  cb();
  ++processed_;
  return true;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t n = 0;
  const std::uint64_t before = processed_;
  while (n < limit && fire_next(kTimeMax)) {
    n = static_cast<std::size_t>(processed_ - before);
  }
  return n;
}

std::size_t Scheduler::run_until(Time t) {
  const std::uint64_t before = processed_;
  while (fire_next(t)) {
  }
  if (now_ < t) now_ = t;
  wheel_.advance_cursor(t);
  if (oracle_) oracle_->mirror_boundary(t, pending());
  return static_cast<std::size_t>(processed_ - before);
}

}  // namespace intox::sim
