// The block-parallel whole-file parser (workload/trace_internals.hpp)
// against the serial TraceReader: for every layout the reader's edge tests
// cover, at block sizes from 16 B to 4 KiB and with 1, 2 and 4 workers,
// both give the same records, or the same TraceError text for the same
// line. Also: scan statistics bitwise equal to a serial fold, and
// Instance::sortedByArrival's no-sort path against the stable_sort oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/trace_internals.hpp"
#include "workload/trace_io.hpp"

namespace cdbp {
namespace {

using trace_internal::ParseOptions;
using trace_internal::ParsedRecord;

const TraceFormat kFormats[] = {TraceFormat::kCsv, TraceFormat::kJsonl};
const std::size_t kBlockSizes[] = {16, 17, 31, 64, 100, 256, 1000, 4096};
const std::size_t kWorkers[] = {1, 2, 4};

Instance workload(std::size_t n, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.numItems = n;
  spec.mu = 16.0;
  return generateWorkload(spec, seed);
}

std::string traceText(const Instance& inst, TraceFormat format) {
  std::stringstream out;
  writeTrace(inst, out, format);
  return out.str();
}

// What reading a text gives: the records (first size only), or the error.
struct Outcome {
  std::vector<ParsedRecord> records;
  std::string error;
};

Outcome serialRead(const std::string& text, TraceFormat format) {
  Outcome out;
  try {
    std::istringstream in(text);
    TraceReader reader(in, format, "chunk.trace");
    TraceRecord record;
    while (reader.next(record)) {
      out.records.push_back(
          {record.arrival, record.departure, record.sizes[0]});
    }
  } catch (const TraceError& e) {
    out.error = e.what();
  }
  return out;
}

Outcome chunkedRead(const std::string& text, TraceFormat format,
                    const ParseOptions& options) {
  Outcome out;
  try {
    std::istringstream in(text);
    TraceReader reader(in, format, "chunk.trace");
    trace_internal::parseBlocks(
        reader, options, [&out](std::span<const ParsedRecord> records) {
          out.records.insert(out.records.end(), records.begin(),
                             records.end());
        });
  } catch (const TraceError& e) {
    out.error = e.what();
  }
  return out;
}

// Same records bitwise, or the same error text. Records handed on before
// an error are not compared: the block path hands them on a block at a
// time, and the call throws either way.
void expectSame(const Outcome& got, const Outcome& want,
                const std::string& label) {
  ASSERT_EQ(got.error, want.error) << label;
  if (!want.error.empty()) return;
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    const ParsedRecord& g = got.records[i];
    const ParsedRecord& w = want.records[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.arrival),
              std::bit_cast<std::uint64_t>(w.arrival))
        << label << " record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.departure),
              std::bit_cast<std::uint64_t>(w.departure))
        << label << " record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.size),
              std::bit_cast<std::uint64_t>(w.size))
        << label << " record " << i;
  }
}

void expectChunkedMatchesSerial(const std::string& text, TraceFormat format,
                                const ParseOptions& options,
                                const std::string& label) {
  expectSame(chunkedRead(text, format, options), serialRead(text, format),
             label + " (block " + std::to_string(options.blockBytes) +
                 ", workers " + std::to_string(options.workers) + ")");
}

void expectAtEveryBlockSize(const std::string& text, TraceFormat format,
                            const std::string& label) {
  for (std::size_t block : kBlockSizes) {
    for (std::size_t workers : kWorkers) {
      expectChunkedMatchesSerial(text, format, {block, workers}, label);
    }
  }
}

// The text split into lines, each keeping its '\n'.
std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    end = end == std::string::npos ? text.size() : end + 1;
    out.push_back(text.substr(start, end - start));
    start = end;
  }
  return out;
}

std::string joined(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += part;
  return out;
}

std::size_t headerLines(TraceFormat format) {
  return format == TraceFormat::kCsv ? 2 : 1;
}

TEST(TraceChunked, CleanFilesMatchTheSerialReader) {
  Instance inst = workload(80, 3);
  for (TraceFormat format : kFormats) {
    const std::string text = traceText(inst, format);
    ASSERT_EQ(serialRead(text, format).records.size(), 80u);
    expectAtEveryBlockSize(text, format, "clean");
  }
}

TEST(TraceChunked, LineEndingsMatchTheSerialReader) {
  Instance inst = workload(25, 9);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    std::string noFinalNewline = clean;
    noFinalNewline.pop_back();
    expectAtEveryBlockSize(noFinalNewline, format, "no final \\n");
    std::string crlf;
    for (char c : clean) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    expectAtEveryBlockSize(crlf, format, "CRLF");
    crlf.pop_back();
    expectAtEveryBlockSize(crlf, format, "CRLF, no final \\n");
  }
}

TEST(TraceChunked, SkippableLinesAndTabsMatchTheSerialReader) {
  Instance inst = workload(12, 11);
  for (TraceFormat format : kFormats) {
    const std::vector<std::string> parts = lines(traceText(inst, format));
    const std::size_t first = headerLines(format);
    std::vector<std::string> fillers = {"\n", "\t\n", " \t \n", "\r\n"};
    if (format == TraceFormat::kCsv) {
      fillers.push_back("# note\n");
      fillers.push_back("\t# indented note\n");
    }
    for (const std::string& filler : fillers) {
      for (std::size_t at = first; at <= parts.size(); at += 3) {
        std::vector<std::string> withFiller = parts;
        withFiller.insert(withFiller.begin() + static_cast<std::ptrdiff_t>(at),
                          filler);
        expectAtEveryBlockSize(joined(withFiller), format,
                               "filler at line " + std::to_string(at + 1));
      }
    }
    // A file that is only skippable lines after its header.
    std::vector<std::string> empty(parts.begin(),
                                   parts.begin() + static_cast<std::ptrdiff_t>(first));
    for (int i = 0; i < 40; ++i) empty.push_back(fillers[i % fillers.size()]);
    expectAtEveryBlockSize(joined(empty), format, "no records");
    // Tabs and spaces around every cell and around each line.
    std::vector<std::string> spaced = parts;
    for (std::size_t i = first; i < spaced.size(); ++i) {
      std::string line = spaced[i].substr(0, spaced[i].size() - 1);
      std::string out = "\t ";
      for (char c : line) {
        out += c;
        if (c == ',') out += " \t";
      }
      spaced[i] = out + " \t\n";
    }
    expectAtEveryBlockSize(joined(spaced), format, "tabs");
  }
}

TEST(TraceChunked, LinesLongerThanABlockMatchTheSerialReader) {
  Instance inst = workload(30, 7);
  const std::size_t longPad = 5000;  // past the largest block size tested
  for (TraceFormat format : kFormats) {
    const std::vector<std::string> parts = lines(traceText(inst, format));
    const std::size_t first = headerLines(format);
    std::vector<std::string> padded = parts;
    padded[first] = std::string(longPad, ' ') + padded[first];
    padded[first + 3] = std::string(longPad, '\t') + padded[first + 3];
    if (format == TraceFormat::kCsv) {
      padded.insert(padded.begin() + static_cast<std::ptrdiff_t>(first + 10),
                    "# " + std::string(longPad, 'x') + "\n");
    }
    expectAtEveryBlockSize(joined(padded), format, "long lines");
    std::string tail = joined(parts);
    tail.pop_back();
    tail.insert(tail.rfind('\n') + 1, std::string(longPad, '\t'));
    expectAtEveryBlockSize(tail, format, "long last line");
  }
}

TEST(TraceChunked, HeaderOnlyAndHeaderErrorsMatchTheSerialReader) {
  for (const char* text :
       {"# cdbp-trace v1\narrival,departure,size\n",
        "# cdbp-trace v1\narrival,departure,size", "# cdbp-trace v1\n",
        "", "# cdbp-trace v2\narrival,departure,size\n0,1,0.5\n"}) {
    expectAtEveryBlockSize(text, TraceFormat::kCsv, "header");
  }
  expectAtEveryBlockSize("{\"format\":\"cdbp-trace\",\"version\":1}\n",
                         TraceFormat::kJsonl, "header");
}

// A file whose only fault is the record at line `line` (1-based) arriving
// before the one above it.
std::string withOrderViolationAt(const std::vector<std::string>& parts,
                                 std::size_t line, TraceFormat format) {
  std::vector<std::string> out = parts;
  const std::string bad = format == TraceFormat::kCsv ? "0.001,0.5,0.25\n"
                                                      : "[0.001,0.5,0.25]\n";
  out[line - 1] = bad;
  return joined(out);
}

// Bytes after the header up to the start of line `line` (1-based): a block
// of exactly this many bytes ends on the line before, so `line` opens the
// next block.
std::size_t dataBytesBefore(const std::vector<std::string>& parts,
                            std::size_t line, TraceFormat format) {
  std::size_t bytes = 0;
  for (std::size_t i = headerLines(format); i + 1 < line; ++i) {
    bytes += parts[i].size();
  }
  return bytes;
}

TEST(TraceChunked, OrderViolationExactlyAtASeam) {
  Instance inst = workload(200, 21);
  for (TraceFormat format : kFormats) {
    const std::vector<std::string> parts = lines(traceText(inst, format));
    for (std::size_t line : {std::size_t{40}, std::size_t{41}, std::size_t{150}}) {
      const std::string text = withOrderViolationAt(parts, line, format);
      const Outcome want = serialRead(text, format);
      ASSERT_NE(want.error.find("line " + std::to_string(line) +
                                ": arrivals must be nondecreasing"),
                std::string::npos)
          << want.error;
      const std::size_t seam = dataBytesBefore(parts, line, format);
      for (std::size_t workers : kWorkers) {
        expectChunkedMatchesSerial(text, format, {seam, workers},
                                   "violation at line " + std::to_string(line));
        // The seam also falls on a later block boundary of smaller blocks.
        expectChunkedMatchesSerial(text, format, {seam / 2 + 1, workers},
                                   "violation at line " + std::to_string(line));
      }
    }
  }
}

TEST(TraceChunked, FirstErrorInFileOrderWins) {
  // A seam violation, then a malformed line later in the same block and
  // in later blocks: the violation is reported, whichever block a worker
  // finishes first.
  Instance inst = workload(400, 23);
  for (TraceFormat format : kFormats) {
    const std::vector<std::string> parts = lines(traceText(inst, format));
    const std::size_t violation = 60;
    std::vector<std::string> damaged = lines(
        withOrderViolationAt(parts, violation, format));
    for (std::size_t line : {violation + 2, violation + 30, std::size_t{300}}) {
      damaged[line - 1] = format == TraceFormat::kCsv ? "1,x,0.5\n" : "[1,x]\n";
    }
    const std::string text = joined(damaged);
    const Outcome want = serialRead(text, format);
    ASSERT_NE(want.error.find("line " + std::to_string(violation) + ": "),
              std::string::npos)
        << want.error;
    const std::size_t seam = dataBytesBefore(parts, violation, format);
    for (std::size_t workers : kWorkers) {
      for (std::size_t block : {seam, std::size_t{64}, std::size_t{700}}) {
        expectChunkedMatchesSerial(text, format, {block, workers},
                                   "violation then errors");
      }
    }
    // Without the violation, the first malformed line is reported.
    damaged[violation - 1] = parts[violation - 1];
    for (std::size_t workers : kWorkers) {
      expectChunkedMatchesSerial(joined(damaged), format, {64, workers},
                                 "errors only");
    }
  }
}

TEST(TraceChunked, TruncationsMatchTheSerialReader) {
  Instance inst = workload(20, 13);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
      const ParseOptions options{kBlockSizes[cut % 4], kWorkers[cut % 3]};
      expectChunkedMatchesSerial(clean.substr(0, cut), format, options,
                                 "cut at " + std::to_string(cut));
    }
  }
}

TEST(TraceChunked, ByteFlipsMatchTheSerialReader) {
  const std::string alphabet = "0123456789.,-+eE[]{}\":# \t\r\nabcinfz\x7f";
  Instance inst = workload(60, 17);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    Rng rng(format == TraceFormat::kCsv ? 505 : 606);
    for (int round = 0; round < 600; ++round) {
      std::string damaged = clean;
      const int flips = 1 + static_cast<int>(rng.uniformInt(0, 3));
      for (int f = 0; f < flips; ++f) {
        std::size_t at = rng.uniformInt(0, damaged.size() - 1);
        damaged[at] = rng.chance(0.8)
                          ? alphabet[rng.uniformInt(0, alphabet.size() - 1)]
                          : static_cast<char>(rng.uniformInt(0, 255));
      }
      const ParseOptions options{
          kBlockSizes[rng.uniformInt(0, std::size(kBlockSizes) - 1)],
          kWorkers[rng.uniformInt(0, std::size(kWorkers) - 1)]};
      expectChunkedMatchesSerial(damaged, format, options,
                                 "round " + std::to_string(round));
    }
  }
}

// scanTrace's statistics from a serial pass over TraceReader.
TraceStats serialStats(const std::string& text, TraceFormat format) {
  std::istringstream in(text);
  TraceReader reader(in, format, "chunk.trace");
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
    stats.maxArrival = record.arrival;
    stats.maxSize = std::max(stats.maxSize, record.sizes[0]);
    stats.demand += record.sizes[0] * duration;
    ++stats.count;
  }
  if (stats.count > 0 && stats.minDuration > 0) {
    stats.mu = stats.maxDuration / stats.minDuration;
  }
  return stats;
}

void expectSameStats(const TraceStats& got, const TraceStats& want,
                     const std::string& label) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.count, want.count) << label;
  EXPECT_EQ(got.dims, want.dims) << label;
  EXPECT_EQ(bits(got.minArrival), bits(want.minArrival)) << label;
  EXPECT_EQ(bits(got.maxArrival), bits(want.maxArrival)) << label;
  EXPECT_EQ(bits(got.maxDeparture), bits(want.maxDeparture)) << label;
  EXPECT_EQ(bits(got.minDuration), bits(want.minDuration)) << label;
  EXPECT_EQ(bits(got.maxDuration), bits(want.maxDuration)) << label;
  EXPECT_EQ(bits(got.mu), bits(want.mu)) << label;
  EXPECT_EQ(bits(got.demand), bits(want.demand)) << label;
  EXPECT_EQ(bits(got.maxSize), bits(want.maxSize)) << label;
}

TEST(TraceChunked, ScanStatsAreBitwiseTheSerialFold) {
  Instance inst = workload(3000, 29);
  for (TraceFormat format : kFormats) {
    const std::string text = traceText(inst, format);
    const TraceStats want = serialStats(text, format);
    ASSERT_EQ(want.count, 3000u);
    {
      std::istringstream in(text);
      expectSameStats(scanTrace(in, format, "chunk.trace"), want, "scanTrace");
    }
    for (std::size_t block : {std::size_t{16}, std::size_t{512}, std::size_t{4096}}) {
      for (std::size_t workers : kWorkers) {
        std::istringstream in(text);
        expectSameStats(
            trace_internal::scan(in, format, "chunk.trace", {block, workers}),
            want, "block " + std::to_string(block));
      }
    }
  }
  // A two-dimensional trace: every size is validated, stats use the first.
  std::stringstream multi;
  TraceWriter writer(multi, TraceFormat::kCsv, 2);
  TraceRecord record;
  record.sizes = {0, 0};
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    record.arrival = i * 0.5;
    record.departure = record.arrival + 1 + rng.uniform(0, 9);
    record.sizes = {rng.uniform(0.01, 1), rng.uniform(0.01, 1)};
    writer.write(record);
  }
  const TraceStats want = serialStats(multi.str(), TraceFormat::kCsv);
  for (std::size_t workers : kWorkers) {
    std::istringstream in(multi.str());
    expectSameStats(
        trace_internal::scan(in, TraceFormat::kCsv, "chunk.trace", {64, workers}),
        want, "dims 2");
  }
}

TEST(TraceChunked, LoadInstanceIsTheSameAtEveryWorkerCount) {
  namespace fs = std::filesystem;
  Instance inst = workload(5000, 37);
  const std::vector<Item> want = inst.sortedByArrival();
  for (const char* ext : {".csv", ".jsonl"}) {
    fs::path path = fs::temp_directory_path() /
                    (std::string("cdbp_trace_chunked_test") + ext);
    saveTrace(inst, path.string());
    for (std::size_t workers : kWorkers) {
      Instance got = trace_internal::loadInstance(path.string(), {4096, workers});
      ASSERT_EQ(got.size(), want.size()) << ext;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[static_cast<ItemId>(i)], want[i])
            << ext << " item " << i;
      }
    }
    EXPECT_EQ(loadTraceInstance(path.string()).items(),
              trace_internal::loadInstance(path.string(), {4096, 1}).items());
    fs::remove(path);
  }
}

// Instance::sortedByArrival returns a plain copy when arrivals never
// decrease; either way it must equal a stable sort by (arrival, id).
std::vector<Item> stableSortOracle(const Instance& inst) {
  std::vector<Item> order = inst.items();
  std::stable_sort(order.begin(), order.end(), [](const Item& a, const Item& b) {
    if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
    return a.id < b.id;
  });
  return order;
}

TEST(TraceChunked, SortedByArrivalMatchesTheStableSortOracle) {
  const Instance generated = workload(2000, 41);
  const Instance sorted(generated.sortedByArrival());
  std::vector<Item> tiedItems;
  std::vector<Item> unsortedItems = generated.items();
  Rng rng(43);
  for (std::size_t i = 0; i < 2000; ++i) {
    const Time arrival = static_cast<Time>(i / 50);  // 50-way ties
    tiedItems.emplace_back(0, rng.uniform(0.01, 1), arrival,
                           arrival + 1 + rng.uniform(0, 5));
  }
  std::vector<Item> tiedUnsorted = tiedItems;
  for (std::size_t i = tiedUnsorted.size() - 1; i > 0; --i) {
    std::swap(tiedUnsorted[i], tiedUnsorted[rng.uniformInt(0, i)]);
  }
  for (std::size_t i = unsortedItems.size() - 1; i > 0; --i) {
    std::swap(unsortedItems[i], unsortedItems[rng.uniformInt(0, i)]);
  }
  std::vector<Item> oneSwap = sorted.items();
  std::swap(oneSwap[1000], oneSwap[1001]);
  const std::pair<const char*, Instance> cases[] = {
      {"sorted", sorted},
      {"tied", Instance(tiedItems)},
      {"tied, shuffled", Instance(tiedUnsorted)},
      {"shuffled", Instance(unsortedItems)},
      {"one swap", Instance(oneSwap)},
      {"empty", Instance()},
  };
  for (const auto& [label, inst] : cases) {
    EXPECT_EQ(inst.sortedByArrival(), stableSortOracle(inst)) << label;
  }
}

}  // namespace
}  // namespace cdbp
