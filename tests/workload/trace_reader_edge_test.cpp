// Edge cases and fuzzing for the buffered TraceReader: the reader splits
// lines out of fixed read() blocks, so every layout that moves a line
// across a block boundary, or a line longer than a block, must read the
// same records as the clean file. Damaged input must parse or raise a
// TraceError naming its line — never crash (the asan-ubsan build runs this
// suite too).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace cdbp {
namespace {

constexpr std::size_t kBlock = TraceReader::kBlockBytes;

std::string traceText(const Instance& inst, TraceFormat format) {
  std::stringstream out;
  writeTrace(inst, out, format);
  return out.str();
}

Instance workload(std::size_t n, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.numItems = n;
  spec.mu = 16.0;
  return generateWorkload(spec, seed);
}

std::vector<TraceRecord> readAll(const std::string& text, TraceFormat format) {
  std::istringstream in(text);
  TraceReader reader(in, format, "edge.trace");
  std::vector<TraceRecord> records;
  TraceRecord record;
  while (reader.next(record)) records.push_back(record);
  return records;
}

// Bitwise equality of two record lists.
void expectSameRecords(const std::vector<TraceRecord>& got,
                       const std::vector<TraceRecord>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].arrival, want[i].arrival) << label << " record " << i;
    ASSERT_EQ(got[i].departure, want[i].departure) << label << " record " << i;
    ASSERT_EQ(got[i].sizes, want[i].sizes) << label << " record " << i;
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

const TraceFormat kFormats[] = {TraceFormat::kCsv, TraceFormat::kJsonl};

TEST(TraceReaderEdges, MultiBlockFilesReadEveryRecord) {
  // Several blocks' worth of records: lines straddle every boundary the
  // writer's layout happens to produce.
  Instance inst = workload(12000, 3);
  for (TraceFormat format : kFormats) {
    std::string text = traceText(inst, format);
    ASSERT_GT(text.size(), 3 * kBlock);
    std::vector<TraceRecord> records = readAll(text, format);
    std::vector<Item> items = inst.sortedByArrival();
    ASSERT_EQ(records.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_EQ(records[i].arrival, items[i].arrival()) << i;
      ASSERT_EQ(records[i].departure, items[i].departure()) << i;
      ASSERT_EQ(records[i].sizes[0], items[i].size) << i;
    }
  }
}

TEST(TraceReaderEdges, LineEndingAtEveryOffsetAroundABlockBoundary) {
  // A padding line shifts the first records so that the block boundary
  // falls at every byte of them, including right before and after '\n'.
  Instance inst = workload(40, 5);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    const std::vector<TraceRecord> want = readAll(clean, format);
    std::vector<std::string> parts = lines(clean);
    const std::size_t headerBytes =
        format == TraceFormat::kCsv ? parts[0].size() + parts[1].size()
                                    : parts[0].size();
    const std::size_t headerLines = format == TraceFormat::kCsv ? 2 : 1;
    for (std::size_t shift = 0; shift < 64; ++shift) {
      // A blank-ish padding line of whitespace the reader skips: its '\n'
      // lands `shift` bytes before the boundary.
      std::size_t pad = kBlock - headerBytes - 1 - shift;
      std::vector<std::string> shifted = parts;
      shifted.insert(shifted.begin() + static_cast<std::ptrdiff_t>(headerLines),
                     std::string(pad, ' ') + "\n");
      expectSameRecords(readAll(joined(shifted), format), want,
                        "shift " + std::to_string(shift));
    }
  }
}

TEST(TraceReaderEdges, LinesSeveralBlocksLong) {
  Instance inst = workload(30, 7);
  const std::size_t longPad = 3 * kBlock + 123;
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    const std::vector<TraceRecord> want = readAll(clean, format);
    std::vector<std::string> parts = lines(clean);
    const std::size_t first = format == TraceFormat::kCsv ? 2 : 1;
    // A record padded with leading whitespace far past the block size, and
    // (CSV) a comment line of the same length, both mid-file.
    std::vector<std::string> padded = parts;
    padded[first + 3] = std::string(longPad, ' ') + padded[first + 3];
    if (format == TraceFormat::kCsv) {
      padded.insert(padded.begin() + static_cast<std::ptrdiff_t>(first + 10),
                    "# " + std::string(longPad, 'x') + "\n");
    }
    expectSameRecords(readAll(joined(padded), format), want, "long lines");
    // The same record padded as the very last line, with no '\n'.
    std::string tail = joined(parts);
    tail.pop_back();
    std::size_t lastLine = tail.rfind('\n') + 1;
    tail.insert(lastLine, std::string(longPad, '\t'));
    expectSameRecords(readAll(tail, format), want, "long last line");
  }
}

TEST(TraceReaderEdges, LastLineWithoutNewlineAndCrlf) {
  Instance inst = workload(25, 9);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    const std::vector<TraceRecord> want = readAll(clean, format);
    ASSERT_EQ(want.size(), 25u);

    std::string noFinalNewline = clean;
    noFinalNewline.pop_back();
    expectSameRecords(readAll(noFinalNewline, format), want, "no final \\n");

    std::string crlf;
    for (char c : clean) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    expectSameRecords(readAll(crlf, format), want, "CRLF");
    crlf.pop_back();  // "...\r" at the very end
    expectSameRecords(readAll(crlf, format), want, "CRLF, no final \\n");
  }
}

TEST(TraceReaderEdges, SkippableLinesAtEveryPosition) {
  Instance inst = workload(12, 11);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    const std::vector<TraceRecord> want = readAll(clean, format);
    const std::vector<std::string> parts = lines(clean);
    const std::size_t first = format == TraceFormat::kCsv ? 2 : 1;
    std::vector<std::string> fillers = {"\n", "\t\n", " \t \n", "\r\n"};
    if (format == TraceFormat::kCsv) {
      fillers.push_back("# note\n");
      fillers.push_back("\t# indented note\n");
    }
    for (const std::string& filler : fillers) {
      for (std::size_t at = first; at <= parts.size(); ++at) {
        std::vector<std::string> withFiller = parts;
        withFiller.insert(withFiller.begin() + static_cast<std::ptrdiff_t>(at),
                          filler);
        expectSameRecords(readAll(joined(withFiller), format), want,
                          "filler at line " + std::to_string(at + 1));
      }
    }
    // Tabs and spaces around every cell / element and around each line.
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
    expectSameRecords(readAll(joined(spaced), format), want, "tabs");
  }
}

// Damaged input either parses or raises a TraceError whose message names
// the source and a line: "edge.trace, line N: ...". Any other exception,
// or a crash, fails the test.
bool namesALine(const std::string& message) {
  const std::string prefix = "edge.trace, line ";
  if (message.rfind(prefix, 0) != 0) return false;
  std::size_t i = prefix.size();
  if (i >= message.size() || message[i] < '1' || message[i] > '9') return false;
  while (i < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[i]))) {
    ++i;
  }
  return message.compare(i, 2, ": ") == 0;
}

void expectParsesOrNamesALine(const std::string& text, TraceFormat format,
                              const std::string& label) {
  try {
    readAll(text, format);
  } catch (const TraceError& e) {
    EXPECT_TRUE(namesALine(e.what())) << label << ": " << e.what();
  }
}

TEST(TraceReaderFuzz, TruncationsParseOrNameTheLine) {
  Instance inst = workload(20, 13);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
      expectParsesOrNamesALine(clean.substr(0, cut), format,
                               "cut at " + std::to_string(cut));
    }
  }
}

TEST(TraceReaderFuzz, ByteFlipsParseOrNameTheLine) {
  const std::string alphabet = "0123456789.,-+eE[]{}\":# \t\r\nabcinfz\x7f";
  Instance inst = workload(40, 17);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    Rng rng(format == TraceFormat::kCsv ? 101 : 202);
    for (int round = 0; round < 3000; ++round) {
      std::string damaged = clean;
      const int flips = 1 + static_cast<int>(rng.uniformInt(0, 3));
      for (int f = 0; f < flips; ++f) {
        std::size_t at = rng.uniformInt(0, damaged.size() - 1);
        damaged[at] = rng.chance(0.8)
                          ? alphabet[rng.uniformInt(0, alphabet.size() - 1)]
                          : static_cast<char>(rng.uniformInt(0, 255));
      }
      expectParsesOrNamesALine(damaged, format,
                               "round " + std::to_string(round));
    }
  }
}

TEST(TraceReaderFuzz, DamageAcrossBlockBoundaries) {
  // The same damage, but in a multi-block file near a boundary, where the
  // reader is moving a partial line to the front of its buffer.
  Instance inst = workload(6000, 19);
  for (TraceFormat format : kFormats) {
    const std::string clean = traceText(inst, format);
    ASSERT_GT(clean.size(), 2 * kBlock);
    Rng rng(format == TraceFormat::kCsv ? 303 : 404);
    for (int round = 0; round < 40; ++round) {
      std::string damaged = clean;
      std::size_t at = kBlock - 8 + rng.uniformInt(0, 16);
      damaged[at] = "0,.\n#x[] "[rng.uniformInt(0, 8)];
      expectParsesOrNamesALine(damaged, format,
                               "round " + std::to_string(round));
      expectParsesOrNamesALine(clean.substr(0, at), format,
                               "cut at " + std::to_string(at));
    }
  }
}

}  // namespace
}  // namespace cdbp
