// Fixture: an intentionally shared metric under a justified pragma
// (the second registration site is the one that needs it). Must
// produce zero findings.
#include "obs/metrics.hpp"

namespace intox::fixture {

void primary_site() {
  obs::Registry::global().counter("fixture.shared_total");
}

void secondary_site() {
  // Both call paths feed one aggregate on purpose.
  // intox-analyze: allow(metrics, intentionally shared aggregate)
  obs::Registry::global().counter("fixture.shared_total");
}

}  // namespace intox::fixture
