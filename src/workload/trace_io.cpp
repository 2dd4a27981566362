#include "workload/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "core/epsilon.hpp"
#include "io/json_writer.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"
#include "workload/trace_internals.hpp"

namespace cdbp {

namespace {

const char kCsvMagicPrefix[] = "# cdbp-trace v";

std::string_view stripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view trimWs(std::string_view s) {
  auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

std::string formatValue(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// "size" for the first dimension, "size2".. beyond — matching the CSV
/// column names.
std::string sizeFieldName(std::size_t dim) {
  return dim == 0 ? "size" : "size" + std::to_string(dim + 1);
}

/// First model violation in `record`, or "" when it is valid. Shared by
/// the reader (line-numbered errors) and the writer (record-numbered
/// errors) so both ends enforce the same instance model.
std::string recordViolation(const TraceRecord& record) {
  if (!std::isfinite(record.arrival) || !std::isfinite(record.departure)) {
    return "times must be finite";
  }
  if (!(record.departure > record.arrival)) {
    return "departure (" + formatValue(record.departure) +
           ") must be strictly after arrival (" + formatValue(record.arrival) +
           ")";
  }
  for (std::size_t d = 0; d < record.sizes.size(); ++d) {
    Size s = record.sizes[d];
    if (!std::isfinite(s) || !(s > 0) || lt(kBinCapacity, s)) {
      return sizeFieldName(d) + " must be in (0, 1], got " + formatValue(s);
    }
  }
  return "";
}

std::string orderViolation(Time arrival, Time last) {
  return "arrivals must be nondecreasing (got " + formatValue(arrival) +
         " after " + formatValue(last) + ")";
}

/// Trims `line`; false when it carries no record (blank, or a CSV comment).
bool isDataLine(std::string_view& line, TraceFormat format) {
  line = trimWs(stripCr(line));
  return !line.empty() && !(format == TraceFormat::kCsv && line[0] == '#');
}

bool parseCsvCells(std::string_view line, std::size_t dims, TraceRecord& out,
                   std::string& why) {
  const std::size_t expected = dims + 2;
  std::size_t cellIndex = 0;
  while (true) {
    std::size_t comma = line.find(',');
    std::string_view cell = trimWs(line.substr(0, comma));
    if (cellIndex >= expected) {
      why = "expected " + std::to_string(expected) + " cells, got more";
      return false;
    }
    double value = 0;
    if (!tryParseDouble(cell, value)) {
      why = "cell " + std::to_string(cellIndex + 1) + " ('" +
            std::string(cell) + "') is not a number";
      return false;
    }
    if (cellIndex == 0) {
      out.arrival = value;
    } else if (cellIndex == 1) {
      out.departure = value;
    } else {
      out.sizes.push_back(value);
    }
    ++cellIndex;
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (cellIndex != expected) {
    why = "expected " + std::to_string(expected) + " cells, got " +
          std::to_string(cellIndex);
    return false;
  }
  return true;
}

bool parseJsonlArray(std::string_view line, std::size_t dims,
                     TraceRecord& out, std::string& why) {
  const std::size_t expected = dims + 2;
  std::size_t i = 0;
  auto ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  ws();
  if (i >= line.size() || line[i] != '[') {
    why = "expected a JSON array record '[arrival,departure,size...]', got '" +
          std::string(line) + "'";
    return false;
  }
  ++i;
  std::size_t count = 0;
  ws();
  if (i < line.size() && line[i] == ']') {
    ++i;
  } else {
    while (true) {
      ws();
      std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != ']' &&
             !std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      std::string_view token = line.substr(start, i - start);
      double value = 0;
      if (!tryParseDouble(token, value)) {
        why = "element " + std::to_string(count + 1) + " ('" +
              std::string(token) + "') is not a number";
        return false;
      }
      if (count >= expected) {
        why = "expected " + std::to_string(expected) + " elements, got more";
        return false;
      }
      if (count == 0) {
        out.arrival = value;
      } else if (count == 1) {
        out.departure = value;
      } else {
        out.sizes.push_back(value);
      }
      ++count;
      ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= line.size() || line[i] != ']') {
      why = "unterminated array record";
      return false;
    }
    ++i;
  }
  ws();
  if (i != line.size()) {
    why = "trailing characters after array record";
    return false;
  }
  if (count != expected) {
    why = "expected " + std::to_string(expected) + " elements, got " +
          std::to_string(count);
    return false;
  }
  return true;
}

/// Parses one data line (see isDataLine) into `out` and checks it against
/// the instance model. False, with the reason in `why`, when the line is
/// refused; arrival order is the caller's check, since it needs the record
/// before. TraceReader::next and the block parser both run this, so a line
/// reads the same either way.
bool parseRecordLine(std::string_view line, TraceFormat format,
                     std::size_t dims, TraceRecord& out, std::string& why) {
  out.sizes.clear();
  const bool parsed = format == TraceFormat::kCsv
                          ? parseCsvCells(line, dims, out, why)
                          : parseJsonlArray(line, dims, out, why);
  if (!parsed) return false;
  why = recordViolation(out);
  return why.empty();
}

std::unique_ptr<std::ifstream> openTraceFile(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!*file) throw TraceError("cannot open '" + path + "'");
  return file;
}

void requireScalar(const TraceReader& reader) {
  if (reader.dims() != 1) {
    throw TraceError(reader.source() + ": scalar consumer, but the trace "
                     "declares " + std::to_string(reader.dims()) +
                     " dimensions");
  }
}

/// '\n' bytes from the stream's position to its end.
std::size_t countLines(std::istream& in) {
  std::vector<char> block(TraceReader::kBlockBytes);
  std::size_t lines = 0;
  while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         in.gcount() > 0) {
    lines += static_cast<std::size_t>(
        std::count(block.data(), block.data() + in.gcount(), '\n'));
  }
  return lines;
}

}  // namespace

std::string traceFormatName(TraceFormat format) {
  return format == TraceFormat::kCsv ? "csv" : "jsonl";
}

TraceFormat traceFormatForPath(const std::string& path) {
  auto endsWith = [&path](const char* suffix) {
    std::string_view sv(suffix);
    return path.size() >= sv.size() &&
           path.compare(path.size() - sv.size(), sv.size(), sv) == 0;
  };
  if (endsWith(".csv")) return TraceFormat::kCsv;
  if (endsWith(".jsonl")) return TraceFormat::kJsonl;
  throw TraceError("cannot infer trace format from '" + path +
                   "' (expected a .csv or .jsonl extension)");
}

// --- TraceReader ---

TraceReader::TraceReader(std::istream& in, TraceFormat format,
                         std::string source)
    : in_(in),
      format_(format),
      source_(std::move(source)),
      buffer_(kBlockBytes) {
  if (format_ == TraceFormat::kCsv) {
    parseCsvHeader();
  } else {
    parseJsonlHeader();
  }
}

void TraceReader::fail(const std::string& why) const {
  throw TraceError(source_ + ", line " + std::to_string(line_) + ": " + why);
}

void TraceReader::refill() {
  const std::size_t tail = end_ - pos_;
  if (pos_ > 0) std::memmove(buffer_.data(), buffer_.data() + pos_, tail);
  pos_ = 0;
  end_ = tail;
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  in_.read(buffer_.data() + end_,
           static_cast<std::streamsize>(buffer_.size() - end_));
  end_ += static_cast<std::size_t>(in_.gcount());
  if (in_.bad()) fail("read error");
  // A short read sets failbit and eofbit: nothing follows end_.
  if (!in_) eof_ = true;
}

bool TraceReader::nextLine(std::string_view& line) {
  std::size_t searched = pos_;  // bytes before this have no '\n'
  while (true) {
    const char* base = buffer_.data();
    const void* newline = std::memchr(base + searched, '\n', end_ - searched);
    if (newline != nullptr) {
      const std::size_t at =
          static_cast<std::size_t>(static_cast<const char*>(newline) - base);
      line = std::string_view(base + pos_, at - pos_);
      pos_ = at + 1;
      ++line_;
      return true;
    }
    if (eof_) {
      // A last line without '\n' still counts; an empty remainder is EOF.
      if (pos_ == end_) return false;
      line = std::string_view(base + pos_, end_ - pos_);
      pos_ = end_;
      ++line_;
      return true;
    }
    searched = end_ - pos_;  // refill() moves the tail to offset 0
    refill();
  }
}

std::string_view TraceReader::headerLine(const std::string& missing) {
  std::string_view line;
  if (!nextLine(line)) {
    ++line_;  // name the line that is missing
    fail(missing);
  }
  return line;
}

void TraceReader::parseCsvHeader() {
  std::string_view line = trimWs(
      stripCr(headerLine("empty input (expected magic line '# cdbp-trace v1')")));
  if (!line.starts_with(kCsvMagicPrefix)) {
    fail("expected magic line '# cdbp-trace v1', got '" + std::string(line) +
         "'");
  }
  std::uint64_t version = 0;
  if (!tryParseUint(line.substr(sizeof(kCsvMagicPrefix) - 1), version)) {
    fail("malformed version in magic line '" + std::string(line) + "'");
  }
  if (version != static_cast<std::uint64_t>(kTraceFormatVersion)) {
    fail("unsupported trace version " + std::to_string(version) +
         " (this build reads v" + std::to_string(kTraceFormatVersion) + ")");
  }
  line = stripCr(headerLine("missing column header 'arrival,departure,size'"));
  std::vector<std::string_view> columns;
  for (std::string_view rest = line;;) {
    std::size_t comma = rest.find(',');
    columns.push_back(trimWs(rest.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (columns.size() < 3 || columns[0] != "arrival" ||
      columns[1] != "departure") {
    fail("expected column header 'arrival,departure,size[,size2...]', got '" +
         std::string(line) + "'");
  }
  for (std::size_t c = 2; c < columns.size(); ++c) {
    if (columns[c] != sizeFieldName(c - 2)) {
      fail("expected size column '" + sizeFieldName(c - 2) + "', got '" +
           std::string(columns[c]) + "'");
    }
  }
  dims_ = columns.size() - 2;
}

void TraceReader::parseJsonlHeader() {
  const std::string_view line =
      stripCr(headerLine("empty input (expected a JSON header object)"));

  std::size_t i = 0;
  auto ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  auto expect = [&](char c) {
    ws();
    if (i >= line.size() || line[i] != c) {
      fail(std::string("malformed header: expected '") + c + "'");
    }
    ++i;
  };
  auto parseString = [&]() -> std::string {
    expect('"');
    std::string out;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) fail("malformed header: unterminated escape");
        char c = line[i];
        // Enough for the provenance strings this library writes; anything
        // fancier is rejected rather than mis-read.
        if (c == '"' || c == '\\' || c == '/') {
          out.push_back(c);
        } else {
          fail("malformed header: unsupported string escape");
        }
      } else {
        out.push_back(line[i]);
      }
      ++i;
    }
    if (i >= line.size()) fail("malformed header: unterminated string");
    ++i;  // closing quote
    return out;
  };
  auto parseScalarToken = [&]() -> std::string {
    ws();
    std::size_t start = i;
    while (i < line.size() && line[i] != ',' && line[i] != '}' &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i == start) fail("malformed header: missing value");
    return std::string(line.substr(start, i - start));
  };

  expect('{');
  bool sawFormat = false;
  bool sawVersion = false;
  ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      std::string key = parseString();
      expect(':');
      ws();
      bool isString = i < line.size() && line[i] == '"';
      std::string value = isString ? parseString() : parseScalarToken();
      if (key == "format") {
        if (!isString || value != "cdbp-trace") {
          fail("header 'format' must be the string \"cdbp-trace\"");
        }
        sawFormat = true;
      } else if (key == "version") {
        std::uint64_t v = 0;
        if (isString || !tryParseUint(value, v)) {
          fail("header 'version' must be an integer");
        }
        if (v != static_cast<std::uint64_t>(kTraceFormatVersion)) {
          fail("unsupported trace version " + value + " (this build reads v" +
               std::to_string(kTraceFormatVersion) + ")");
        }
        sawVersion = true;
      } else if (key == "dims") {
        std::uint64_t d = 0;
        if (isString || !tryParseUint(value, d) || d == 0) {
          fail("header 'dims' must be a positive integer");
        }
        dims_ = static_cast<std::size_t>(d);
      }
      // Unknown keys (writer provenance like "note") are ignored.
      ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    expect('}');
  }
  ws();
  if (i != line.size()) fail("malformed header: trailing characters");
  if (!sawFormat) fail("header is missing \"format\":\"cdbp-trace\"");
  if (!sawVersion) fail("header is missing \"version\"");
}

bool TraceReader::nextDataLine(std::string_view& line) {
  while (nextLine(line)) {
    if (isDataLine(line, format_)) return true;
  }
  return false;
}

bool TraceReader::next(TraceRecord& out) {
  std::string_view line;
  if (!nextDataLine(line)) return false;
  std::string why;
  if (!parseRecordLine(line, format_, dims_, out, why)) fail(why);
  if (records_ > 0 && out.arrival < lastArrival_) {
    fail(orderViolation(out.arrival, lastArrival_));
  }
  lastArrival_ = out.arrival;
  ++records_;
  return true;
}

// --- TraceWriter ---

TraceWriter::TraceWriter(std::ostream& out, TraceFormat format,
                         std::size_t dims, const std::string& note)
    : out_(out), format_(format), dims_(dims) {
  if (dims_ == 0) throw TraceError("TraceWriter: dims must be >= 1");
  if (note.find('\n') != std::string::npos ||
      note.find('\r') != std::string::npos) {
    throw TraceError("TraceWriter: note must be a single line");
  }
  if (format_ == TraceFormat::kCsv) {
    out_ << kCsvMagicPrefix << kTraceFormatVersion << '\n';
    out_ << "arrival,departure,size";
    for (std::size_t d = 1; d < dims_; ++d) out_ << ',' << sizeFieldName(d);
    out_ << '\n';
    if (!note.empty()) out_ << "# " << note << '\n';
  } else {
    out_ << "{\"format\":\"cdbp-trace\",\"version\":" << kTraceFormatVersion
         << ",\"dims\":" << dims_;
    if (!note.empty()) out_ << ",\"note\":\"" << jsonEscape(note) << '"';
    out_ << "}\n";
  }
}

void TraceWriter::write(const TraceRecord& record) {
  if (record.sizes.size() != dims_) {
    throw TraceError("TraceWriter: record " + std::to_string(records_) +
                     " carries " + std::to_string(record.sizes.size()) +
                     " sizes, the header declares " + std::to_string(dims_));
  }
  std::string violation = recordViolation(record);
  if (!violation.empty()) {
    throw TraceError("TraceWriter: record " + std::to_string(records_) + ": " +
                     violation);
  }
  if (records_ > 0 && record.arrival < lastArrival_) {
    throw TraceError("TraceWriter: record " + std::to_string(records_) +
                     " breaks nondecreasing arrival order (" +
                     formatValue(record.arrival) + " after " +
                     formatValue(lastArrival_) + ")");
  }
  if (format_ == TraceFormat::kCsv) {
    out_ << jsonDouble(record.arrival) << ',' << jsonDouble(record.departure);
    for (Size s : record.sizes) out_ << ',' << jsonDouble(s);
    out_ << '\n';
  } else {
    out_ << '[' << jsonDouble(record.arrival) << ','
         << jsonDouble(record.departure);
    for (Size s : record.sizes) out_ << ',' << jsonDouble(s);
    out_ << "]\n";
  }
  lastArrival_ = record.arrival;
  ++records_;
}

void TraceWriter::write(Time arrival, Time departure, Size size) {
  if (dims_ != 1) {
    throw TraceError("TraceWriter: scalar write() on a " +
                     std::to_string(dims_) + "-dimensional trace");
  }
  TraceRecord record;
  record.arrival = arrival;
  record.departure = departure;
  record.sizes.push_back(size);
  write(record);
}

// --- Block parser (workload/trace_internals.hpp) ---

namespace trace_internal {

/// What the block parser takes over from a TraceReader that has parsed
/// the header.
struct ReaderAccess {
  static std::istream& stream(TraceReader& reader) { return reader.in_; }
  static TraceFormat format(const TraceReader& reader) {
    return reader.format_;
  }
  /// Bytes the reader has pulled off the stream but not parsed.
  static std::string_view buffered(const TraceReader& reader) {
    return {reader.buffer_.data() + reader.pos_, reader.end_ - reader.pos_};
  }
  /// The stream has no bytes past buffered().
  static bool drained(const TraceReader& reader) { return reader.eof_; }
  static std::size_t lines(const TraceReader& reader) { return reader.line_; }
  static std::size_t records(const TraceReader& reader) {
    return reader.records_;
  }
};

}  // namespace trace_internal

namespace {

using trace_internal::ParsedRecord;
using trace_internal::ReaderAccess;

/// One newline-aligned block of input and what parsing it produced. Ring
/// slots are reused, so the vectors keep their capacity: the caller
/// reserves them before a parse, and a parse allocates only to report an
/// error. Slots sit on their own cache lines: a parse writes its slot per
/// record while other threads parse the slots beside it.
struct alignas(64) ParseBlock {
  std::vector<char> bytes;
  std::size_t size = 0;    ///< bytes of this block; [size, filled) opens the next
  std::size_t filled = 0;  ///< bytes read into `bytes`
  // Parse output; line numbers are 1-based within the block.
  std::size_t lines = 0;
  std::vector<ParsedRecord> records;
  std::size_t firstRecordLine = 0;
  std::size_t errorLine = 0;  ///< 0 when every line parsed
  std::string error;
  std::exception_ptr fault;  ///< the parse itself threw (out of memory)
  TraceRecord scratch;
};

/// Parses the block's lines up to the first bad one. The first record's
/// order against the block before is the caller's check.
void parseBlock(ParseBlock& block, TraceFormat format, std::size_t dims) {
  block.lines = 0;
  block.records.clear();
  block.errorLine = 0;
  const char* at = block.bytes.data();
  const char* const end = at + block.size;
  while (at < end) {
    const char* newline = static_cast<const char*>(
        std::memchr(at, '\n', static_cast<std::size_t>(end - at)));
    const char* lineEnd = newline != nullptr ? newline : end;
    std::string_view line(at, static_cast<std::size_t>(lineEnd - at));
    at = newline != nullptr ? newline + 1 : end;
    ++block.lines;
    if (!isDataLine(line, format)) continue;
    const TraceRecord& record = block.scratch;
    std::string why;
    if (parseRecordLine(line, format, dims, block.scratch, why) &&
        !block.records.empty() &&
        record.arrival < block.records.back().arrival) {
      why = orderViolation(record.arrival, block.records.back().arrival);
    }
    if (!why.empty()) {
      block.errorLine = block.lines;
      block.error = std::move(why);
      return;
    }
    if (block.records.empty()) block.firstRecordLine = block.lines;
    block.records.push_back(
        {record.arrival, record.departure, record.sizes[0]});
  }
}

/// Where a ring slot's block is: the caller fills and consumes it while
/// kIdle; kQueued blocks go to whichever thread claims them first.
enum class SlotState : char { kIdle, kQueued, kParsing, kParsed };

/// The ring behind parseBlocks: the calling thread reads blocks and hands
/// them to the pool; blocks come back, and fail, in file order. While the
/// block it needs next is unparsed, the caller parses queued blocks
/// itself rather than wait for a worker to be scheduled.
class BlockRing {
 public:
  BlockRing(TraceReader& reader, const trace_internal::ParseOptions& options)
      : in_(ReaderAccess::stream(reader)),
        format_(ReaderAccess::format(reader)),
        dims_(reader.dims()),
        source_(reader.source()),
        buffered_(ReaderAccess::buffered(reader)),
        streamDrained_(ReaderAccess::drained(reader)),
        blockBytes_(std::max<std::size_t>(1, options.blockBytes)),
        workers_(options.workers != 0
                     ? options.workers
                     : std::clamp<std::size_t>(
                           std::thread::hardware_concurrency(), 1,
                           trace_internal::kMaxParseWorkers)),
        lines_(ReaderAccess::lines(reader)),
        slots_(std::max<std::size_t>(2, 2 * workers_)),
        state_(slots_.size(), SlotState::kIdle) {
    CDBP_CHECK(ReaderAccess::records(reader) == 0,
               "parseBlocks: the reader has already returned records");
    for (ParseBlock& block : slots_) block.scratch.sizes.reserve(dims_);
  }

  // Pool tasks hold `this`.
  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  void run(const trace_internal::BlockSink& sink) {
    std::size_t filled = 0;
    std::size_t consumed = 0;
    bool more = true;
    while (true) {
      while (more && filled - consumed < slots_.size()) {
        if (!fill(filled)) {
          more = false;
          break;
        }
        dispatch(filled++, consumed);
      }
      if (consumed == filled) break;
      await(consumed, filled);
      consume(slot(consumed), sink);
      ++consumed;
    }
    if (readFailed_) fail(lines_, "read error");
  }

 private:
  ParseBlock& slot(std::size_t index) { return slots_[index % slots_.size()]; }

  bool drained() const { return streamDrained_ && buffered_.empty(); }

  /// Up to `count` bytes of input into `out`: the reader's buffered bytes
  /// first, then the stream.
  std::size_t read(char* out, std::size_t count) {
    std::size_t got = std::min(count, buffered_.size());
    if (got > 0) std::memcpy(out, buffered_.data(), got);
    buffered_.remove_prefix(got);
    if (got < count && !streamDrained_) {
      in_.read(out + got, static_cast<std::streamsize>(count - got));
      got += static_cast<std::size_t>(in_.gcount());
      if (in_.bad()) readFailed_ = true;
      if (!in_) streamDrained_ = true;
    }
    return got;
  }

  /// Reads block `index` into its slot: the previous block's unfinished
  /// line, then blockBytes_ at a time until a '\n' or the end of input.
  /// False when no input is left.
  bool fill(std::size_t index) {
    ParseBlock& block = slot(index);
    block.filled = 0;
    if (index > 0) {
      const ParseBlock& prev = slot(index - 1);
      block.filled = prev.filled - prev.size;
      if (block.filled > 0) {
        if (block.bytes.size() < block.filled) block.bytes.resize(block.filled);
        std::memcpy(block.bytes.data(), prev.bytes.data() + prev.size,
                    block.filled);
      }
    }
    std::size_t searched = block.filled;  // the carried line has no '\n'
    block.size = 0;
    while (block.size == 0) {
      if (block.bytes.size() < block.filled + blockBytes_) {
        block.bytes.resize(block.filled + blockBytes_);
      }
      block.filled += read(block.bytes.data() + block.filled, blockBytes_);
      if (readFailed_) return false;
      for (std::size_t i = block.filled; i > searched; --i) {
        if (block.bytes[i - 1] == '\n') {
          block.size = i;
          break;
        }
      }
      if (block.size == 0 && drained()) {
        if (block.filled == 0) return false;
        block.size = block.filled;  // a last line without '\n'
      }
      searched = block.filled;
    }
    const char* base = block.bytes.data();
    block.records.reserve(
        static_cast<std::size_t>(std::count(base, base + block.size, '\n')) +
        1);
    return true;
  }

  /// Queues block `index`. The pool starts at the third block, so an
  /// input of two blocks or fewer parses inline with no threads.
  void dispatch(std::size_t index, std::size_t consumed) {
    {
      MutexLock lock(mu_);
      state_[index % slots_.size()] = SlotState::kQueued;
    }
    if (!pool_) {
      if (workers_ < 2 || index < 2) return;
      pool_.emplace(workers_);
      for (std::size_t i = consumed; i < index; ++i) submit(i);
    }
    submit(index);
  }

  void submit(std::size_t index) {
    const std::size_t at = index % slots_.size();
    pool_->submit([this, at] { parseQueued(at); });
  }

  /// Claims slot `at` if its block is still queued; the thread that claims
  /// it parses it. False when another thread got there first.
  bool claim(std::size_t at) {
    MutexLock lock(mu_);
    if (state_[at] != SlotState::kQueued) return false;
    state_[at] = SlotState::kParsing;
    return true;
  }

  /// Parses a claimed slot. Never throws, so the slot always ends parsed.
  void parseClaimed(std::size_t at) {
    ParseBlock& block = slots_[at];
    try {
      parseBlock(block, format_, dims_);
    } catch (...) {
      block.fault = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      state_[at] = SlotState::kParsed;
    }
    parsed_.notify_all();
  }

  /// Pool task. A task can outlive its block: when the caller has parsed
  /// and consumed that block, the slot is idle (nothing to do) or holds a
  /// later queued block, which this task may then parse.
  void parseQueued(std::size_t at) {
    if (claim(at)) parseClaimed(at);
  }

  /// Returns once block `index` is parsed. Meanwhile the caller parses the
  /// queued blocks in [index, filled) itself, oldest first.
  void await(std::size_t index, std::size_t filled) {
    const std::size_t at = index % slots_.size();
    for (std::size_t next = index; next < filled; ++next) {
      {
        MutexLock lock(mu_);
        if (state_[at] == SlotState::kParsed) break;
      }
      if (claim(next % slots_.size())) parseClaimed(next % slots_.size());
    }
    {
      MutexLock lock(mu_);
      while (state_[at] != SlotState::kParsed) parsed_.wait(mu_);
      state_[at] = SlotState::kIdle;
    }
    ParseBlock& block = slots_[at];
    if (block.fault) std::rethrow_exception(std::exchange(block.fault, nullptr));
  }

  /// Takes a parsed block in file order: checks the seam, raises the
  /// block's error, or hands its records on.
  void consume(const ParseBlock& block, const trace_internal::BlockSink& sink) {
    if (!block.records.empty() && records_ > 0 &&
        block.records.front().arrival < lastArrival_) {
      fail(lines_ + block.firstRecordLine,
           orderViolation(block.records.front().arrival, lastArrival_));
    }
    if (block.errorLine != 0) fail(lines_ + block.errorLine, block.error);
    if (!block.records.empty()) {
      sink(block.records);
      records_ += block.records.size();
      lastArrival_ = block.records.back().arrival;
    }
    lines_ += block.lines;
  }

  [[noreturn]] void fail(std::size_t line, const std::string& why) const {
    throw TraceError(source_ + ", line " + std::to_string(line) + ": " + why);
  }

  std::istream& in_;
  const TraceFormat format_;
  const std::size_t dims_;
  const std::string& source_;
  std::string_view buffered_;
  bool streamDrained_;
  bool readFailed_ = false;
  const std::size_t blockBytes_;
  const std::size_t workers_;
  std::size_t lines_;  ///< lines before the next block to consume
  std::size_t records_ = 0;
  Time lastArrival_ = 0;
  std::vector<ParseBlock> slots_;
  Mutex mu_;
  std::condition_variable_any parsed_;
  std::vector<SlotState> state_ CDBP_GUARDED_BY(mu_);
  // Last, so it is destroyed first: its destructor finishes the parses
  // still queued while the slots they write are alive.
  std::optional<ThreadPool> pool_;
};

}  // namespace

namespace trace_internal {

void parseBlocks(TraceReader& reader, const ParseOptions& options,
                 const BlockSink& sink) {
  BlockRing(reader, options).run(sink);
}

Instance readInstance(std::istream& in, TraceFormat format,
                      const std::string& source, std::size_t capacity,
                      const ParseOptions& options) {
  TraceReader reader(in, format, source);
  requireScalar(reader);
  InstanceBuilder builder;
  builder.reserve(capacity);
  parseBlocks(reader, options, [&builder](std::span<const ParsedRecord> records) {
    for (const ParsedRecord& r : records) {
      builder.add(r.size, r.arrival, r.departure);
    }
  });
  return builder.build();
}

Instance loadInstance(const std::string& path, const ParseOptions& options) {
  TraceFormat format = traceFormatForPath(path);
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open '" + path + "'");
  // A first pass counts the lines (an upper bound on the records), so the
  // item vector is allocated once at its final size. Grown by doubling
  // through a large trace, it frees a cascade of blocks that glibc's heap
  // packs badly once its mmap threshold has risen, and the process peak
  // then moves by megabytes with unrelated small allocations (DESIGN.md
  // §11.1).
  const std::size_t lines = countLines(in);
  in.clear();
  in.seekg(0);
  return readInstance(in, format, path, lines, options);
}

TraceStats scan(std::istream& in, TraceFormat format,
                const std::string& source, const ParseOptions& options) {
  TraceReader reader(in, format, source);
  TraceStats stats;
  stats.dims = reader.dims();
  parseBlocks(reader, options, [&stats](std::span<const ParsedRecord> records) {
    for (const ParsedRecord& record : records) {
      Time duration = record.departure - record.arrival;
      if (stats.count == 0) {
        stats.minArrival = record.arrival;
        stats.minDuration = duration;
        stats.maxDuration = duration;
        stats.maxDeparture = record.departure;
      } else {
        stats.minDuration = std::min(stats.minDuration, duration);
        stats.maxDuration = std::max(stats.maxDuration, duration);
        stats.maxDeparture = std::max(stats.maxDeparture, record.departure);
      }
      stats.maxArrival = record.arrival;  // blocks arrive in file order
      stats.maxSize = std::max(stats.maxSize, record.size);
      stats.demand += record.size * duration;
      ++stats.count;
    }
  });
  if (stats.count > 0 && stats.minDuration > 0) {
    stats.mu = stats.maxDuration / stats.minDuration;
  }
  return stats;
}

}  // namespace trace_internal

// --- Whole-instance and whole-file helpers ---

void writeTrace(const Instance& instance, std::ostream& out,
                TraceFormat format, const std::string& note) {
  TraceWriter writer(out, format, 1, note);
  TraceRecord record;
  record.sizes.resize(1);
  for (const Item& r : instance.sortedByArrival()) {
    record.arrival = r.arrival();
    record.departure = r.departure();
    record.sizes[0] = r.size;
    writer.write(record);
  }
}

void saveTrace(const Instance& instance, const std::string& path,
               const std::string& note) {
  TraceFormat format = traceFormatForPath(path);
  std::ofstream out(path);
  if (!out) throw TraceError("cannot open '" + path + "' for writing");
  writeTrace(instance, out, format, note);
  out.flush();
  if (!out) throw TraceError("write error on '" + path + "'");
}

Instance readTraceInstance(std::istream& in, TraceFormat format,
                           const std::string& source) {
  return trace_internal::readInstance(in, format, source, 0, {});
}

Instance loadTraceInstance(const std::string& path) {
  return trace_internal::loadInstance(path, {});
}

TraceStats scanTrace(std::istream& in, TraceFormat format,
                     const std::string& source) {
  return trace_internal::scan(in, format, source, {});
}

TraceStats scanTrace(const std::string& path) {
  TraceFormat format = traceFormatForPath(path);
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open '" + path + "'");
  return scanTrace(in, format, path);
}

// --- TraceArrivalSource ---

TraceArrivalSource::TraceArrivalSource(const std::string& path)
    : file_(openTraceFile(path)),
      reader_(*file_, traceFormatForPath(path), path) {
  requireScalar(reader_);
}

TraceArrivalSource::TraceArrivalSource(std::istream& in, TraceFormat format,
                                       std::string source)
    : reader_(in, format, std::move(source)) {
  requireScalar(reader_);
}

TraceArrivalSource::~TraceArrivalSource() = default;

bool TraceArrivalSource::next(StreamItem& out) {
  if (!reader_.next(record_)) return false;
  out.size = record_.sizes[0];
  out.arrival = record_.arrival;
  out.departure = record_.departure;
  return true;
}

}  // namespace cdbp
