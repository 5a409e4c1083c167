#include "trafficgen/synth.hpp"

#include <cmath>

namespace intox::trafficgen {

net::FiveTuple random_tuple_to(const net::Prefix& prefix, sim::Rng& rng) {
  net::FiveTuple t;
  t.src = net::Ipv4Addr{static_cast<std::uint32_t>(
      rng.uniform_int(0x0b000000ULL, 0xdfffffffULL))};
  const int host_bits = 32 - prefix.length();
  const std::uint32_t host =
      host_bits == 0 ? 0
                     : static_cast<std::uint32_t>(rng.uniform_int(
                           0, (std::uint64_t{1} << host_bits) - 1));
  t.dst = net::Ipv4Addr{prefix.addr().value() | host};
  t.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  t.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 1023));
  t.proto = net::IpProto::kTcp;
  return t;
}

sim::Duration draw_duration(const TraceConfig& config, sim::Rng& rng) {
  const double mean = static_cast<double>(config.mean_duration);
  switch (config.duration_model) {
    case DurationModel::kExponential:
      return static_cast<sim::Duration>(rng.exponential(mean));
    case DurationModel::kLogNormal: {
      // mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(mean) - s^2/2.
      constexpr double kSigma = 1.2;
      const double mu = std::log(mean) - kSigma * kSigma / 2.0;
      return static_cast<sim::Duration>(rng.lognormal(mu, kSigma));
    }
    case DurationModel::kBoundedPareto: {
      constexpr double kAlpha = 1.3;
      const double lo = static_cast<double>(sim::millis(100));
      const double hi = 20.0 * mean;
      // Rejection-sample the bounded tail; scale x_m so the unbounded
      // mean alpha*x_m/(alpha-1) matches the target, then clamp.
      const double x_m = mean * (kAlpha - 1.0) / kAlpha;
      double d = rng.pareto(std::max(x_m, lo), kAlpha);
      if (d > hi) d = hi;
      return static_cast<sim::Duration>(d);
    }
  }
  return config.mean_duration;
}

std::vector<FlowSpec> synthesize_trace(const TraceConfig& config,
                                       sim::Rng& rng) {
  // Poisson arrivals at the equilibrium rate  lambda = N / E[duration].
  const double mean_dur = static_cast<double>(config.mean_duration);
  const double lambda_per_ns =
      static_cast<double>(config.active_flows) / mean_dur;

  // One allocation: the initial population plus the mean arrival count
  // and six standard deviations of it. Doubling up to a trace's ~10^5
  // flows instead frees a trail of multi-MB buffers, and how much of
  // that trail stays resident depends on the heap's history, so peak
  // RSS moved from one run of the same trace to the next.
  std::vector<FlowSpec> flows;
  const double arrivals = lambda_per_ns * static_cast<double>(config.horizon);
  if (arrivals >= 0.0 && arrivals < 1e8) {  // else grow as drawn
    const double margin = 6.0 * std::sqrt(arrivals);
    flows.reserve(config.active_flows +
                  static_cast<std::size_t>(arrivals + margin));
  }
  std::uint64_t next_id = 1;

  auto make_flow = [&](sim::Time start, sim::Duration duration) {
    FlowSpec f;
    f.id = next_id++;
    f.tuple = random_tuple_to(config.victim_prefix, rng);
    f.start = start;
    f.duration = duration;
    f.pkt_interval = config.pkt_interval;
    f.payload_bytes = config.payload_bytes;
    flows.push_back(f);
  };

  // Initial steady-state population. For the exponential model the
  // residual lifetime of an in-progress flow is again exponential
  // (memoryless); for the heavy-tailed models this is an approximation,
  // which washes out after the first few mean durations.
  for (std::size_t i = 0; i < config.active_flows; ++i) {
    make_flow(0, draw_duration(config, rng));
  }

  // Arrivals over the horizon.
  sim::Time t = 0;
  while (true) {
    t += static_cast<sim::Duration>(rng.exponential(1.0 / lambda_per_ns));
    if (t >= config.horizon) break;
    make_flow(t, draw_duration(config, rng));
  }
  return flows;
}

std::vector<FlowSpec> synthesize_malicious_flows(const TraceConfig& config,
                                                 std::size_t count,
                                                 sim::Time start,
                                                 sim::Rng& rng,
                                                 std::uint64_t first_id) {
  std::vector<FlowSpec> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowSpec f;
    f.id = first_id + i;
    f.tuple = random_tuple_to(config.victim_prefix, rng);
    f.start = start;
    f.duration = 0;  // unused: malicious drivers run until stopped
    f.pkt_interval = config.pkt_interval;
    f.payload_bytes = config.payload_bytes;
    f.malicious = true;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace intox::trafficgen
