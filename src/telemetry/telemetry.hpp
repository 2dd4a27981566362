// Instrumentation site macros (DESIGN.md §8).
//
// Library code never talks to the Registry directly on hot paths; it drops
// one of these macros at the site:
//
//   CDBP_TELEM_COUNT(name, delta)        counter += delta
//   CDBP_TELEM_GAUGE_SET(name, value)    gauge = value (tracks max)
//   CDBP_TELEM_HIST(name, value)         histogram.record(value)
//   CDBP_TELEM_SCOPED_TIMER(var, name)   RAII wall-clock timer -> histogram
//
// Each macro resolves the metric once per call site (function-local static
// reference into the global registry) and then updates the calling
// thread's cell of it (registry.hpp).
// With CDBP_TELEMETRY=0 every macro expands to nothing: no statics, no
// atomics, no clock reads — the zero-cost guarantee the bench_throughput
// telemetry-off comparison checks.
#pragma once

#include "telemetry/registry.hpp"

#if CDBP_TELEMETRY

#define CDBP_TELEM_COUNT(name, delta)                            \
  do {                                                           \
    static ::cdbp::telemetry::Counter& cdbpTelemC =              \
        ::cdbp::telemetry::Registry::global().counter(name);     \
    cdbpTelemC.add(static_cast<std::uint64_t>(delta));           \
  } while (0)

#define CDBP_TELEM_GAUGE_SET(name, value)                        \
  do {                                                           \
    static ::cdbp::telemetry::Gauge& cdbpTelemG =                \
        ::cdbp::telemetry::Registry::global().gauge(name);       \
    cdbpTelemG.set(static_cast<std::int64_t>(value));            \
  } while (0)

#define CDBP_TELEM_HIST(name, value)                             \
  do {                                                           \
    static ::cdbp::telemetry::Histogram& cdbpTelemH =            \
        ::cdbp::telemetry::Registry::global().histogram(name);   \
    cdbpTelemH.record(static_cast<std::uint64_t>(value));        \
  } while (0)

#define CDBP_TELEM_SCOPED_TIMER(var, name)                       \
  static ::cdbp::telemetry::Histogram& var##Sink =               \
      ::cdbp::telemetry::Registry::global().histogram(name);     \
  ::cdbp::telemetry::ScopedTimer var(var##Sink)

#else  // !CDBP_TELEMETRY

// The (void) casts keep locals that only feed instrumentation from
// tripping -Wunused-but-set-variable under -Werror; the expressions are
// side-effect-free and fold away entirely.
#define CDBP_TELEM_COUNT(name, delta) \
  do {                                \
    (void)(delta);                    \
  } while (0)
#define CDBP_TELEM_GAUGE_SET(name, value) \
  do {                                    \
    (void)(value);                        \
  } while (0)
#define CDBP_TELEM_HIST(name, value) \
  do {                               \
    (void)(value);                   \
  } while (0)
#define CDBP_TELEM_SCOPED_TIMER(var, name) \
  do {                                     \
  } while (0)

#endif  // CDBP_TELEMETRY
