// Fixture: metric-name violations — bad grammar and duplicate
// registration sites. Each must fire.
#include "obs/metrics.hpp"

namespace intox::fixture {

void bad_names() {
  auto& reg = obs::Registry::global();
  reg.counter("Retransmits");         // line 9: no family, uppercase
  reg.counter("blink.Retransmits");   // line 10: uppercase component
  reg.gauge("blink..depth");          // line 11: empty component
  reg.counter("blink.retx-count");    // line 12: dash not allowed
  reg.gauge("latency");               // line 13: single component
}

void duplicate_sites() {
  auto& reg = obs::Registry::global();
  reg.counter("fixture.dup_count");  // line 18: first site (not flagged)
  reg.counter("fixture.dup_count");  // line 19: duplicate site (flagged)
}

}  // namespace intox::fixture
