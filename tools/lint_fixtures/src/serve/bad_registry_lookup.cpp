// Fixture: registry lookups in library code must fire registry-lookup-in-lib.
#include "telemetry/registry.hpp"

void noteTenants(long count) {
  cdbp::telemetry::Registry::global().gauge("serve.tenants").set(count);
}

void noteFrame() {
  cdbp::telemetry::Registry::global().counter("serve.frames").add(1);
}

void noteLatency(unsigned long ns) {
  cdbp::telemetry::Registry::global().histogram("serve.ns").record(ns);
}
