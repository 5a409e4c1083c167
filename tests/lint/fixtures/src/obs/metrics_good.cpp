// Fixture: well-formed metric registrations — dotted lowercase names,
// one site each. Must produce zero findings.
#include "obs/metrics.hpp"

namespace intox::fixture {

void good_names() {
  auto& reg = obs::Registry::global();
  reg.counter("fixture.retransmits");
  reg.counter("fixture.link2.tx_bytes");
  reg.gauge("fixture.queue.depth_hwm");
  reg.gauge("fixture.rtt.micros");
  // Non-literal names cannot be checked statically and must not trip
  // the scanner.
  const std::string dynamic = "fixture.dynamic_name";
  reg.counter(dynamic);
}

}  // namespace intox::fixture
