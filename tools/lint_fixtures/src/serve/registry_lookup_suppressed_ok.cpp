// Fixture: a dynamic metric name resolved once, with a justified
// suppression, lints clean.
#include <string>

#include "telemetry/registry.hpp"

cdbp::telemetry::Counter* resolveTenantCounter(const std::string& prefix) {
  // cdbp-lint: allow(registry-lookup-in-lib): dynamic name, resolved once per session
  return &cdbp::telemetry::Registry::global().counter(prefix + ".placements");
}
