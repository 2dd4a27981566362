// Fixture: src/telemetry/ defines the registry and its macros — the
// registry-lookup-in-lib rule must stay quiet here.
#include "telemetry/registry.hpp"

cdbp::telemetry::Counter& lookupFixture() {
  return cdbp::telemetry::Registry::global().counter("fixture.count");
}
