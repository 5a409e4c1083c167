// Fixture: the known-good twin of determinism_bad.cpp — seed plumbed
// in, substreams forked, simulation time from the scheduler. Must
// produce zero findings.
#include <cstdint>

#include "sim/rng.hpp"

namespace intox::fixture {

double trial(const sim::Rng& base, std::uint64_t trial_index) {
  sim::Rng rng = base.fork(trial_index);
  return rng.uniform();
}

// Identifiers that merely *contain* banned names must not fire.
struct Clocked {
  long time_budget = 0;
  long randomness = 0;
};

// A member named `time` is a simulation-time accessor, not libc time().
template <typename Sched>
long now_of(const Sched& sched) {
  return sched.time();
}

// Rng's own shuffle is a member call, not std::shuffle.
template <typename Container>
void deal(sim::Rng& rng, Container& deck) {
  rng.shuffle(deck);
}

}  // namespace intox::fixture
