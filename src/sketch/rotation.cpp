#include "sketch/rotation.hpp"

#include "net/hash.hpp"
#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::sketch {

RotatingBloom::RotatingBloom(const RotationConfig& config)
    : config_(config),
      filter_(config.cells, config.hashes,
              static_cast<std::uint32_t>(
                  net::mix64(config.seed_sequence_start))),
      seed_counter_(config.seed_sequence_start) {}

void RotatingBloom::insert(std::uint64_t key) {
  filter_.insert(key);
  recent_.push_back(key);
  if (recent_.size() > config_.retained_keys) recent_.pop_front();
  if (++since_rotation_ >= config_.rotation_period) rotate();
  INTOX_INVARIANT(recent_.size() <= config_.retained_keys,
                  "retention window leaked: %zu keys retained, limit %zu",
                  recent_.size(), config_.retained_keys);
  INTOX_INVARIANT(since_rotation_ < config_.rotation_period,
                  "missed a seed rotation: %llu inserts since rotation, "
                  "period %llu",
                  static_cast<unsigned long long>(since_rotation_),
                  static_cast<unsigned long long>(config_.rotation_period));
}

void RotatingBloom::rotate() {
  // Observability: how full (and how collided) the filter got before
  // the rotation wiped it — the fill high-water is the §3.2 saturation
  // signal a supervisor would watch.
  static obs::Counter& rotations =
      obs::Registry::global().counter("sketch.rotations");
  // Shared with sketch/attack.cpp on purpose: both paths feed one
  // process-wide saturation signal, whichever sketch variant ran.
  static obs::Counter& collisions =
      // intox-analyze: allow(metrics, shared with attack.cpp on purpose)
      obs::Registry::global().counter("sketch.collisions");
  static obs::Gauge& fill_hwm =
      // intox-analyze: allow(metrics, shared with attack.cpp on purpose)
      obs::Registry::global().gauge("sketch.fill_ratio_hwm");
  rotations.add(1);
  if (filter_.collisions()) collisions.add(filter_.collisions());
  fill_hwm.update_max(filter_.fill_fraction());

  ++rotations_;
  since_rotation_ = 0;
  ++seed_counter_;
  // The new seed is drawn from a sequence the attacker cannot predict
  // (modeled: mixed counter; a deployment would use a CSPRNG).
  filter_ = BloomFilter{config_.cells, config_.hashes,
                        static_cast<std::uint32_t>(net::mix64(seed_counter_))};
  for (std::uint64_t k : recent_) filter_.insert(k);
}

}  // namespace intox::sketch
