// Versioned job-trace file format (CSV and JSONL flavors) + strict reader.
//
// A trace is the on-disk form of a workload: one record per job, ordered
// by arrival, carrying `arrival, departure, size[, size2..sizeK]`. The
// format exists so any generator output (or a real cluster trace massaged
// into this shape) can be replayed through the batch simulator, the
// bounded-memory streaming simulator (sim/streaming.hpp), or the runMany
// grid — without the producer and consumer sharing a process.
//
// v1, CSV flavor (extension .csv):
//
//     # cdbp-trace v1
//     arrival,departure,size
//     0.0,4.0,0.5
//     1.0,3.0,0.25
//
//   Line 1 is the magic/version line, line 2 the column header (extra
//   dimensions append `,size2,...,sizeK`). After the header, blank lines
//   and `#`-prefixed comment lines are skipped — writers use comments for
//   provenance notes.
//
// v1, JSONL flavor (extension .jsonl):
//
//     {"format":"cdbp-trace","version":1,"dims":1}
//     [0.0,4.0,0.5]
//     [1.0,3.0,0.25]
//
//   Line 1 is a flat JSON header object; unknown string/number keys are
//   ignored (writers park provenance there as `"note"`). Each record is a
//   JSON array of exactly dims+2 numbers.
//
// Both flavors share the semantics of core/instance.hpp: times finite,
// departure strictly after arrival, every size in (0, kBinCapacity] under
// the epsilon discipline, and records in nondecreasing arrival order (the
// streaming simulator depends on it; the reader enforces it). Numbers are
// written in shortest-round-trip form (io/json_writer.hpp jsonDouble), so
// write -> read reproduces every double bitwise.
//
// The reader is strict: any malformed line raises TraceError naming the
// source and 1-based line number. Parsing never crashes and never guesses.
//
// Two paths read records. TraceReader pulls one record at a time and keeps
// O(1) memory; it is what TraceArrivalSource replays. The whole-file entry
// points (readTraceInstance, loadTraceInstance, scanTrace) cut the input
// after the header into newline-aligned blocks and parse them on a small
// worker pool (workload/trace_internals.hpp). Both paths run the same
// line-level parse-and-validate function, and the block path checks
// arrival order across block seams, so they accept the same files and
// raise the same TraceError text for the first bad line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "sim/streaming.hpp"

namespace cdbp {

namespace trace_internal {
struct ReaderAccess;
}  // namespace trace_internal

/// Malformed trace input (or an unwritable/unreadable path). The message
/// names the source and the offending 1-based line where applicable.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class TraceFormat {
  kCsv,    ///< `# cdbp-trace v1` + column header + comma rows
  kJsonl,  ///< JSON header object + one JSON number-array per record
};

/// The format version this build reads and writes.
inline constexpr int kTraceFormatVersion = 1;

/// "csv" / "jsonl".
std::string traceFormatName(TraceFormat format);

/// Format selection by file extension (".csv" / ".jsonl", case-sensitive);
/// throws TraceError for anything else.
TraceFormat traceFormatForPath(const std::string& path);

/// One trace record. `sizes` has one entry per dimension; scalar consumers
/// use sizes[0]. Reusing the same TraceRecord across TraceReader::next
/// calls avoids per-record allocation.
struct TraceRecord {
  Time arrival = 0;
  Time departure = 0;
  std::vector<Size> sizes;
};

/// Streaming reader: header is parsed (and validated) on construction,
/// records are pulled one at a time — O(1) memory in the trace length.
///
/// The reader pulls the stream in kBlockBytes blocks with read() and
/// splits lines in its own buffer, so records parse from views into that
/// buffer and allocate nothing. A line longer than the buffer grows it:
/// memory is O(block + longest line). The reader consumes the stream ahead
/// of the record it returned, so the stream's position is unspecified
/// while a reader is attached.
class TraceReader {
 public:
  /// Bytes requested per read() of the underlying stream.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// `source` labels error messages (a path, "<stdin>", ...). Throws
  /// TraceError when the header is malformed or the version unsupported.
  TraceReader(std::istream& in, TraceFormat format,
              std::string source = "<trace>");

  /// Parses the next record into `out`. Returns false at a clean end of
  /// input; throws TraceError (with the line number) on malformed input,
  /// a model-invalid record, or an arrival-order violation.
  bool next(TraceRecord& out);

  /// Dimension count declared by the header (1 for scalar traces).
  std::size_t dims() const { return dims_; }

  std::size_t recordsRead() const { return records_; }
  const std::string& source() const { return source_; }

 private:
  // The block parser takes over the stream after the header.
  friend struct trace_internal::ReaderAccess;

  [[noreturn]] void fail(const std::string& why) const;
  void parseCsvHeader();
  void parseJsonlHeader();
  /// Next raw line (no '\n'), viewing the buffer until the next call;
  /// false at end of input. Counts lines.
  bool nextLine(std::string_view& line);
  /// Moves the unread tail to the front of the buffer and reads one more
  /// block after it, growing the buffer when the tail fills it.
  void refill();
  /// Next header line; fails with `missing` (naming that line) at end of
  /// input.
  std::string_view headerLine(const std::string& missing);
  bool nextDataLine(std::string_view& line);

  std::istream& in_;
  TraceFormat format_;
  std::string source_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;  ///< first unread byte of buffer_
  std::size_t end_ = 0;  ///< end of the bytes read into buffer_
  bool eof_ = false;     ///< the stream has no bytes past end_
  std::size_t line_ = 0;
  std::size_t records_ = 0;
  std::size_t dims_ = 1;
  Time lastArrival_ = 0;
};

/// Streaming writer: header on construction, one record per write() —
/// O(1) memory, so exporters can emit traces far larger than RAM. Records
/// are validated like the reader validates them (fail fast at the
/// producer) and must arrive in nondecreasing arrival order.
class TraceWriter {
 public:
  /// `note` is a provenance string embedded in the header (CSV comment
  /// line / JSONL "note" key); empty emits nothing.
  TraceWriter(std::ostream& out, TraceFormat format, std::size_t dims = 1,
              const std::string& note = "");

  void write(const TraceRecord& record);
  /// Scalar shorthand (dims must be 1).
  void write(Time arrival, Time departure, Size size);

  std::size_t recordsWritten() const { return records_; }

 private:
  std::ostream& out_;
  TraceFormat format_;
  std::size_t dims_;
  std::size_t records_ = 0;
  Time lastArrival_ = 0;
};

/// Writes `instance` as a v1 scalar trace in (arrival, id) order — the
/// order Instance::sortedByArrival() defines and readers require.
void writeTrace(const Instance& instance, std::ostream& out,
                TraceFormat format, const std::string& note = "");

/// writeTrace to a path; format from the extension.
void saveTrace(const Instance& instance, const std::string& path,
               const std::string& note = "");

/// Materializes a scalar (dims == 1) trace as an Instance; ids are
/// assigned in record order. Throws TraceError on multi-dimensional input.
/// Parses on the block pool (see the file comment).
Instance readTraceInstance(std::istream& in, TraceFormat format,
                           const std::string& source = "<trace>");

/// readTraceInstance from a path; format from the extension. Reads the file
/// twice: a line count first sizes the item vector exactly, then the block
/// pool parses it (DESIGN.md §11.1).
Instance loadTraceInstance(const std::string& path);

/// One-pass summary of a trace — enough to build a PolicyContext
/// (minDuration, mu) for clairvoyant specs without materializing the
/// trace. Parses on the block pool, so memory is the bounded block ring,
/// not the trace; stats fold in file order, bitwise as a serial pass.
struct TraceStats {
  std::size_t count = 0;
  std::size_t dims = 1;
  Time minArrival = 0;
  Time maxArrival = 0;
  Time maxDeparture = 0;
  Time minDuration = 0;
  Time maxDuration = 0;
  /// maxDuration / minDuration; 1 for an empty trace.
  double mu = 1;
  /// Scalar time-space demand: sum of size * duration (Proposition 1).
  double demand = 0;
  Size maxSize = 0;
};

TraceStats scanTrace(std::istream& in, TraceFormat format,
                     const std::string& source = "<trace>");
TraceStats scanTrace(const std::string& path);

/// ArrivalSource over a scalar trace file: simulateStream pulls records
/// straight off the reader, so whole-trace memory is never allocated.
/// Construction rejects multi-dimensional traces with TraceError.
class TraceArrivalSource final : public ArrivalSource {
 public:
  explicit TraceArrivalSource(const std::string& path);
  TraceArrivalSource(std::istream& in, TraceFormat format,
                     std::string source = "<trace>");
  ~TraceArrivalSource() override;  // out-of-line: std::ifstream is incomplete here

  bool next(StreamItem& out) override;

  const TraceReader& reader() const { return reader_; }

 private:
  std::unique_ptr<std::ifstream> file_;  // owned when constructed from a path
  TraceReader reader_;
  TraceRecord record_;
};

}  // namespace cdbp
