#include "validate/oracles.hpp"

#include <algorithm>
#include <cmath>

#include "validate/invariant.hpp"

namespace intox::validate {

ExactStats exact_stats(const std::vector<double>& xs) {
  ExactStats out;
  out.n = xs.size();
  if (xs.empty()) return out;
  double sum = 0.0;
  out.min = out.max = xs.front();
  for (double x : xs) {
    sum += x;
    out.min = std::min(out.min, x);
    out.max = std::max(out.max, x);
  }
  out.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double sq = 0.0;
    for (double x : xs) sq += (x - out.mean) * (x - out.mean);
    out.variance = sq / static_cast<double>(xs.size() - 1);
  }
  return out;
}

std::uint64_t ReferenceQueue::schedule_at(sim::Time t) {
  if (t < now_) t = now_;
  const std::uint64_t id = next_id_++;
  entries_.push_back(Entry{t, next_seq_++, id});
  return id;
}

bool ReferenceQueue::cancel(std::uint64_t id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::optional<ReferenceQueue::Fired> ReferenceQueue::pop_next() {
  if (entries_.empty()) return std::nullopt;
  auto it = std::min_element(entries_.begin(), entries_.end(),
                             [](const Entry& a, const Entry& b) {
                               if (a.time != b.time) return a.time < b.time;
                               return a.seq < b.seq;
                             });
  Fired f{it->id, it->time};
  entries_.erase(it);
  return f;
}

std::vector<ReferenceQueue::Fired> ReferenceQueue::run_until(sim::Time t) {
  std::vector<Fired> fired;
  for (;;) {
    auto it = std::min_element(entries_.begin(), entries_.end(),
                               [](const Entry& a, const Entry& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    if (it == entries_.end() || it->time > t) break;
    now_ = it->time;
    fired.push_back(Fired{it->id, it->time});
    entries_.erase(it);
  }
  if (now_ < t) now_ = t;
  return fired;
}

std::vector<ReferenceQueue::Fired> ReferenceQueue::run(std::size_t limit) {
  std::vector<Fired> fired;
  while (fired.size() < limit) {
    auto next = pop_next();
    if (!next) break;
    now_ = next->time;
    fired.push_back(*next);
  }
  return fired;
}

void ReferenceQueue::schedule_at(sim::Time t, std::uint64_t id) {
  if (t < now_) t = now_;
  entries_.push_back(Entry{t, next_seq_++, id});
}

std::uint64_t ReferenceQueue::reserve(std::uint64_t n) {
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

bool ReferenceQueue::schedule_reserved(sim::Time t, std::uint64_t ticket,
                                       std::uint64_t id) {
  if (ticket >= next_seq_) return false;
  if (t < now_) t = now_;
  entries_.push_back(Entry{t, ticket, id});
  return true;
}

void SchedulerOracle::check_pending(std::size_t pending, const char* op) {
  INTOX_INVARIANT(ref_.pending() == pending,
                  "scheduler/oracle diverged after %s: wheel pending=%zu "
                  "reference pending=%zu", op, pending, ref_.pending());
}

void SchedulerOracle::mirror_schedule(sim::Time t, std::uint64_t id,
                                      std::size_t pending,
                                      std::optional<std::uint64_t> ticket) {
  if (ticket) {
    ref_.schedule_reserved(t, *ticket, id);
  } else {
    ref_.schedule_at(t, id);
  }
  ++checks_;
  check_pending(pending, "schedule");
}

void SchedulerOracle::mirror_reserve(std::uint64_t first, std::uint64_t n) {
  const std::uint64_t ref_first = ref_.reserve(n);
  ++checks_;
  INTOX_INVARIANT(ref_first == first,
                  "scheduler/oracle diverged on reserve(%llu): wheel "
                  "first ticket=%llu reference=%llu",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(first),
                  static_cast<unsigned long long>(ref_first));
}

void SchedulerOracle::mirror_cancel(std::uint64_t id, bool cancelled,
                                    std::size_t pending) {
  const bool ref_cancelled = ref_.cancel(id);
  ++checks_;
  INTOX_INVARIANT(ref_cancelled == cancelled,
                  "scheduler/oracle diverged on cancel(id=%llu): wheel=%d "
                  "reference=%d",
                  static_cast<unsigned long long>(id), cancelled,
                  ref_cancelled);
  check_pending(pending, "cancel");
}

void SchedulerOracle::mirror_fire(std::uint64_t id, sim::Time t,
                                  sim::Time bound, std::size_t pending) {
  const auto fired = ref_.run(1);
  ++checks_;
  INTOX_INVARIANT(t <= bound,
                  "scheduler fired id=%llu at t=%lld past its run_until "
                  "bound %lld",
                  static_cast<unsigned long long>(id),
                  static_cast<long long>(t), static_cast<long long>(bound));
  INTOX_INVARIANT(!fired.empty(),
                  "scheduler fired id=%llu at t=%lld but the reference "
                  "queue is empty",
                  static_cast<unsigned long long>(id),
                  static_cast<long long>(t));
  INTOX_INVARIANT(fired[0].id == id && fired[0].time == t,
                  "scheduler/oracle fire order diverged: wheel fired "
                  "id=%llu t=%lld, reference expected id=%llu t=%lld",
                  static_cast<unsigned long long>(id),
                  static_cast<long long>(t),
                  static_cast<unsigned long long>(fired[0].id),
                  static_cast<long long>(fired[0].time));
  check_pending(pending, "fire");
}

void SchedulerOracle::mirror_boundary(sim::Time t, std::size_t pending) {
  const auto leftover = ref_.run_until(t);
  ++checks_;
  INTOX_INVARIANT(leftover.empty(),
                  "run_until(%lld) drain diverged: reference still held "
                  "%zu due event(s), first id=%llu t=%lld",
                  static_cast<long long>(t), leftover.size(),
                  static_cast<unsigned long long>(
                      leftover.empty() ? 0 : leftover[0].id),
                  static_cast<long long>(
                      leftover.empty() ? 0 : leftover[0].time));
  check_pending(pending, "run_until boundary");
}

}  // namespace intox::validate
