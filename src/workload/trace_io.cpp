#include "workload/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/epsilon.hpp"
#include "io/json_writer.hpp"
#include "util/parse.hpp"

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

/// readTraceInstance with room for `capacity` items reserved up front.
Instance readInstance(std::istream& in, TraceFormat format,
                      const std::string& source, std::size_t capacity) {
  TraceReader reader(in, format, source);
  requireScalar(reader);
  InstanceBuilder builder;
  builder.reserve(capacity);
  TraceRecord record;
  while (reader.next(record)) {
    builder.add(record.sizes[0], record.arrival, record.departure);
  }
  return builder.build();
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
    line = trimWs(stripCr(line));
    if (line.empty()) continue;
    if (format_ == TraceFormat::kCsv && line[0] == '#') continue;
    return true;
  }
  return false;
}

void TraceReader::parseCsvRecord(std::string_view line, TraceRecord& out) {
  const std::size_t expected = dims_ + 2;
  std::size_t cellIndex = 0;
  while (true) {
    std::size_t comma = line.find(',');
    std::string_view cell = trimWs(line.substr(0, comma));
    if (cellIndex >= expected) {
      fail("expected " + std::to_string(expected) + " cells, got more");
    }
    double value = 0;
    if (!tryParseDouble(cell, value)) {
      fail("cell " + std::to_string(cellIndex + 1) + " ('" +
           std::string(cell) + "') is not a number");
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
    fail("expected " + std::to_string(expected) + " cells, got " +
         std::to_string(cellIndex));
  }
}

void TraceReader::parseJsonlRecord(std::string_view line, TraceRecord& out) {
  const std::size_t expected = dims_ + 2;
  std::size_t i = 0;
  auto ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  ws();
  if (i >= line.size() || line[i] != '[') {
    fail("expected a JSON array record '[arrival,departure,size...]', got '" +
         std::string(line) + "'");
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
        fail("element " + std::to_string(count + 1) + " ('" +
             std::string(token) + "') is not a number");
      }
      if (count >= expected) {
        fail("expected " + std::to_string(expected) + " elements, got more");
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
      fail("unterminated array record");
    }
    ++i;
  }
  ws();
  if (i != line.size()) fail("trailing characters after array record");
  if (count != expected) {
    fail("expected " + std::to_string(expected) + " elements, got " +
         std::to_string(count));
  }
}

void TraceReader::validateRecord(const TraceRecord& record) {
  std::string violation = recordViolation(record);
  if (!violation.empty()) fail(violation);
  if (records_ > 0 && record.arrival < lastArrival_) {
    fail("arrivals must be nondecreasing (got " + formatValue(record.arrival) +
         " after " + formatValue(lastArrival_) + ")");
  }
}

bool TraceReader::next(TraceRecord& out) {
  std::string_view line;
  if (!nextDataLine(line)) return false;
  out.sizes.clear();
  if (format_ == TraceFormat::kCsv) {
    parseCsvRecord(line, out);
  } else {
    parseJsonlRecord(line, out);
  }
  validateRecord(out);
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
  return readInstance(in, format, source, 0);
}

Instance loadTraceInstance(const std::string& path) {
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
  return readInstance(in, format, path, lines);
}

TraceStats scanTrace(std::istream& in, TraceFormat format,
                     const std::string& source) {
  TraceReader reader(in, format, source);
  TraceStats stats;
  stats.dims = reader.dims();
  TraceRecord record;
  while (reader.next(record)) {
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
    stats.maxArrival = record.arrival;  // reader enforces nondecreasing order
    stats.maxSize = std::max(stats.maxSize, record.sizes[0]);
    stats.demand += record.sizes[0] * duration;
    ++stats.count;
  }
  if (stats.count > 0 && stats.minDuration > 0) {
    stats.mu = stats.maxDuration / stats.minDuration;
  }
  return stats;
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
