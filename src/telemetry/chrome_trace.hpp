// Chrome trace-event emitter (the chrome://tracing / Perfetto "Trace Event
// Format", JSON array flavor).
//
// The simulator uses this to dump a placement timeline: every item is a
// complete ("X") event on its bin's row, the open-bin count is a counter
// ("C") series, and bins get named rows via metadata events. Load the
// resulting file in chrome://tracing or https://ui.perfetto.dev.
//
// Timestamps are microseconds. Simulated time is dimensionless, so callers
// scale it (StreamOptions::traceTimeScale, default 1 time unit -> 1s) before
// recording.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cdbp::telemetry {

class ChromeTrace {
 public:
  /// A complete event: a bar from `tsMicros` lasting `durMicros` on row
  /// (pid, tid). `args` show up in the selection panel.
  void addComplete(std::string name, std::string category, double tsMicros,
                   double durMicros, int pid, int tid,
                   std::vector<std::pair<std::string, double>> args = {});

  /// An instant event (a vertical tick) on row (pid, tid).
  void addInstant(std::string name, std::string category, double tsMicros,
                  int pid, int tid);

  /// One sample of a counter series; chrome://tracing plots it as an area
  /// chart per pid.
  void addCounter(std::string series, double tsMicros, int pid, double value);

  /// Names the process/thread rows in the viewer.
  void setProcessName(int pid, std::string name);
  void setThreadName(int pid, int tid, std::string name);

  std::size_t eventCount() const { return events_.size(); }

  /// Writes the whole trace as a JSON array (the format chrome://tracing
  /// accepts directly).
  void write(std::ostream& os) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    char phase = 'X';
    double tsMicros = 0;
    double durMicros = 0;
    int pid = 0;
    int tid = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  std::vector<Event> events_;
  std::map<int, std::string> processNames_;
  std::map<std::pair<int, int>, std::string> threadNames_;
};

}  // namespace cdbp::telemetry
