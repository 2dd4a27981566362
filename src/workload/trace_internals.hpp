// Block-parallel parsing behind the whole-file trace entry points
// (readTraceInstance, loadTraceInstance, scanTrace). Internal: the public
// functions call these with the default options; tests and callers that
// already run inside a thread pool pick the block size or worker count.
//
// After TraceReader has parsed the header, the calling thread reads the
// rest of the input in newline-aligned blocks into a ring of at most two
// blocks per worker. Workers parse each block's lines with the same
// parse-and-validate function TraceReader::next uses, checking arrival
// order inside the block. The caller takes blocks back in file order,
// checks arrival order across each seam and raises the first error in
// file order with its global line number, so errors read exactly as the
// serial reader's. A one-worker parse, or an input of two blocks or fewer,
// runs inline with no threads.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>

#include "workload/trace_io.hpp"

namespace cdbp::trace_internal {

/// Bytes of new input per block. A line longer than a block extends its
/// block to the line's end.
inline constexpr std::size_t kParseBlockBytes = std::size_t{256} << 10;

/// Most parse workers a load starts (DESIGN.md §11.1 has the scaling).
inline constexpr std::size_t kMaxParseWorkers = 3;

struct ParseOptions {
  std::size_t blockBytes = kParseBlockBytes;
  /// Parse threads; 0 picks min(hardware_concurrency, kMaxParseWorkers).
  /// 1 parses on the calling thread.
  std::size_t workers = 0;
};

/// The columns whole-file consumers keep: `size` is the first dimension.
struct ParsedRecord {
  Time arrival = 0;
  Time departure = 0;
  Size size = 0;
};

/// Receives each block's records, in file order.
using BlockSink = std::function<void(std::span<const ParsedRecord>)>;

/// Parses every record after the header `reader` has read, handing them to
/// `sink` block by block. Throws the TraceError TraceReader::next would
/// raise first. `reader` must not have returned records yet.
void parseBlocks(TraceReader& reader, const ParseOptions& options,
                 const BlockSink& sink);

/// readTraceInstance with room for `capacity` items reserved up front.
Instance readInstance(std::istream& in, TraceFormat format,
                      const std::string& source, std::size_t capacity,
                      const ParseOptions& options);

/// loadTraceInstance with explicit options.
Instance loadInstance(const std::string& path, const ParseOptions& options);

/// scanTrace with explicit options.
TraceStats scan(std::istream& in, TraceFormat format,
                const std::string& source, const ParseOptions& options);

}  // namespace cdbp::trace_internal
