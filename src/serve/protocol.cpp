#include "serve/protocol.hpp"

#include <bit>
#include <limits>

namespace cdbp::serve {

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kUnknownFrameType: return "unknown-frame-type";
    case ErrorCode::kProtocolVersion: return "protocol-version";
    case ErrorCode::kUnknownTenant: return "unknown-tenant";
    case ErrorCode::kDuplicateHello: return "duplicate-hello";
    case ErrorCode::kBadPolicySpec: return "bad-policy-spec";
    case ErrorCode::kBadItem: return "bad-item";
    case ErrorCode::kOutOfOrder: return "out-of-order";
    case ErrorCode::kSessionFinished: return "session-finished";
    case ErrorCode::kBackpressure: return "backpressure";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

namespace {

// --- little-endian primitive writers -------------------------------------

void putU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void putI32(std::vector<std::uint8_t>& out, std::int32_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
}

void putF64(std::vector<std::uint8_t>& out, double v) {
  putU64(out, std::bit_cast<std::uint64_t>(v));
}

void putStr16(std::vector<std::uint8_t>& out, const std::string& s) {
  std::size_t n = s.size();
  if (n > std::numeric_limits<std::uint16_t>::max()) {
    n = std::numeric_limits<std::uint16_t>::max();  // writers keep specs short
  }
  putU16(out, static_cast<std::uint16_t>(n));
  out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
}

void putStr32(std::vector<std::uint8_t>& out, const std::string& s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Reserves the 4-byte length prefix, lets `body` append the payload, then
// patches the prefix with the realized payload size.
template <typename Body>
void frame(std::vector<std::uint8_t>& out, FrameType type, Body&& body) {
  std::size_t lengthAt = out.size();
  putU32(out, 0);
  putU8(out, static_cast<std::uint8_t>(type));
  body();
  std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - lengthAt - 4);
  out[lengthAt + 0] = static_cast<std::uint8_t>(payload & 0xFF);
  out[lengthAt + 1] = static_cast<std::uint8_t>((payload >> 8) & 0xFF);
  out[lengthAt + 2] = static_cast<std::uint8_t>((payload >> 16) & 0xFF);
  out[lengthAt + 3] = static_cast<std::uint8_t>((payload >> 24) & 0xFF);
}

// --- bounded cursor reader ------------------------------------------------

class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (size_ - pos_ < 1) return false;
    v = data_[pos_++];
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (size_ - pos_ < 2) return false;
    v = static_cast<std::uint16_t>(data_[pos_] |
                                   (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (size_ - pos_ < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t{data_[pos_ + static_cast<std::size_t>(i)]} << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (size_ - pos_ < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{data_[pos_ + static_cast<std::size_t>(i)]} << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool i32(std::int32_t& v) {
    std::uint32_t raw;
    if (!u32(raw)) return false;
    v = static_cast<std::int32_t>(raw);
    return true;
  }

  bool f64(double& v) {
    std::uint64_t raw;
    if (!u64(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }

  bool str16(std::string& v) {
    std::uint16_t n;
    if (!u16(n)) return false;
    if (size_ - pos_ < n) return false;
    v.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool str32(std::string& v) {
    std::uint32_t n;
    if (!u32(n)) return false;
    if (size_ - pos_ < n) return false;
    v.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  /// Strict decoders require the body to be fully consumed: frames
  /// carry no extension fields, so trailing bytes are malformed input.
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

// --- encoders -------------------------------------------------------------

void appendHello(std::vector<std::uint8_t>& out, const HelloFrame& f) {
  frame(out, FrameType::kHello, [&] {
    putU16(out, f.version);
    putU8(out, f.engine);
    putF64(out, f.minDuration);
    putF64(out, f.mu);
    putU64(out, f.seed);
    putStr16(out, f.tenant);
    putStr16(out, f.policySpec);
  });
}

void appendHelloOk(std::vector<std::uint8_t>& out, const HelloOkFrame& f) {
  frame(out, FrameType::kHelloOk, [&] {
    putU16(out, f.version);
    putU64(out, f.tenantId);
    putStr16(out, f.policyName);
  });
}

void appendPlace(std::vector<std::uint8_t>& out, const PlaceFrame& f) {
  frame(out, FrameType::kPlace, [&] {
    putF64(out, f.size);
    putF64(out, f.arrival);
    putF64(out, f.departure);
  });
}

void appendPlaced(std::vector<std::uint8_t>& out, const PlacedFrame& f) {
  frame(out, FrameType::kPlaced, [&] {
    putU32(out, f.item);
    putI32(out, f.bin);
    putU8(out, f.openedNewBin);
    putI32(out, f.category);
  });
}

void appendDepart(std::vector<std::uint8_t>& out, const DepartFrame& f) {
  frame(out, FrameType::kDepart, [&] { putF64(out, f.time); });
}

void appendDepartOk(std::vector<std::uint8_t>& out, const DepartOkFrame& f) {
  frame(out, FrameType::kDepartOk, [&] {
    putU64(out, f.drained);
    putU64(out, f.openBins);
  });
}

void appendBatch(std::vector<std::uint8_t>& out, const BatchFrame& f) {
  frame(out, FrameType::kBatch, [&] {
    putU32(out, static_cast<std::uint32_t>(f.ops.size()));
    for (const BatchOp& op : f.ops) {
      putU8(out, op.kind);
      if (op.kind == kBatchOpPlace) {
        putF64(out, op.place.size);
        putF64(out, op.place.arrival);
        putF64(out, op.place.departure);
      } else {
        putF64(out, op.depart.time);
      }
    }
  });
}

void appendBatchOk(std::vector<std::uint8_t>& out, const BatchOkFrame& f) {
  frame(out, FrameType::kBatchOk, [&] {
    putU32(out, static_cast<std::uint32_t>(f.results.size()));
    for (const BatchResultEntry& r : f.results) {
      putU8(out, r.kind);
      if (r.kind == kBatchOpPlace) {
        putU32(out, r.placed.item);
        putI32(out, r.placed.bin);
        putU8(out, r.placed.openedNewBin);
        putI32(out, r.placed.category);
      } else {
        putU64(out, r.depart.drained);
        putU64(out, r.depart.openBins);
      }
    }
    putU8(out, f.failed);
    if (f.failed != 0) {
      putU32(out, f.failedIndex);
      putU16(out, static_cast<std::uint16_t>(f.errorCode));
      putStr16(out, f.errorMessage);
    }
  });
}

void appendStats(std::vector<std::uint8_t>& out) {
  frame(out, FrameType::kStats, [] {});
}

void appendStatsOk(std::vector<std::uint8_t>& out, const StatsOkFrame& f) {
  frame(out, FrameType::kStatsOk, [&] {
    putU64(out, f.items);
    putU64(out, f.binsOpened);
    putU64(out, f.openBins);
    putU64(out, f.pendingDepartures);
    putU64(out, f.peakOpenItems);
    putU64(out, f.peakResidentBytes);
  });
}

void appendDrain(std::vector<std::uint8_t>& out) {
  frame(out, FrameType::kDrain, [] {});
}

void appendDrainOk(std::vector<std::uint8_t>& out, const DrainOkFrame& f) {
  frame(out, FrameType::kDrainOk, [&] {
    putU64(out, f.items);
    putF64(out, f.totalUsage);
    putU64(out, f.binsOpened);
    putU64(out, f.maxOpenBins);
    putU64(out, f.categoriesUsed);
    putF64(out, f.lb3);
    putU64(out, f.peakOpenItems);
    putU64(out, f.peakResidentBytes);
  });
}

void appendScrape(std::vector<std::uint8_t>& out) {
  frame(out, FrameType::kScrape, [] {});
}

void appendScrapeOk(std::vector<std::uint8_t>& out, const ScrapeOkFrame& f) {
  frame(out, FrameType::kScrapeOk, [&] { putStr32(out, f.text); });
}

void appendError(std::vector<std::uint8_t>& out, const ErrorFrame& f) {
  frame(out, FrameType::kError, [&] {
    putU16(out, static_cast<std::uint16_t>(f.code));
    putStr16(out, f.message);
  });
}

// --- extraction and decoders ----------------------------------------------

ExtractStatus extractFrame(const std::uint8_t* data, std::size_t size,
                           std::size_t maxPayload, FrameView& out,
                           std::size_t& consumed) {
  if (size < 4) return ExtractStatus::kNeedMore;
  std::uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= std::uint32_t{data[static_cast<std::size_t>(i)]} << (8 * i);
  }
  if (payload > maxPayload) return ExtractStatus::kOversized;
  if (size - 4 < payload) return ExtractStatus::kNeedMore;
  consumed = 4 + static_cast<std::size_t>(payload);
  if (payload == 0) {
    // No type byte: representable on the wire, decodable by nothing. The
    // server maps it to kMalformedFrame; kError is a reply type no client
    // request can legitimately carry.
    out = FrameView{FrameType::kError, data + 4, 0};
    return ExtractStatus::kFrame;
  }
  out.type = static_cast<FrameType>(data[4]);
  out.payload = data + 5;
  out.payloadSize = static_cast<std::size_t>(payload) - 1;
  return ExtractStatus::kFrame;
}

bool decodeHello(const FrameView& frame, HelloFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  HelloFrame v;
  if (!c.u16(v.version) || !c.u8(v.engine) || !c.f64(v.minDuration) ||
      !c.f64(v.mu) || !c.u64(v.seed) || !c.str16(v.tenant) ||
      !c.str16(v.policySpec) || !c.done()) {
    return false;
  }
  out = std::move(v);
  return true;
}

bool decodeHelloOk(const FrameView& frame, HelloOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  HelloOkFrame v;
  if (!c.u16(v.version) || !c.u64(v.tenantId) || !c.str16(v.policyName) ||
      !c.done()) {
    return false;
  }
  out = std::move(v);
  return true;
}

bool decodePlace(const FrameView& frame, PlaceFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  PlaceFrame v;
  if (!c.f64(v.size) || !c.f64(v.arrival) || !c.f64(v.departure) ||
      !c.done()) {
    return false;
  }
  out = v;
  return true;
}

bool decodePlaced(const FrameView& frame, PlacedFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  PlacedFrame v;
  if (!c.u32(v.item) || !c.i32(v.bin) || !c.u8(v.openedNewBin) ||
      !c.i32(v.category) || !c.done()) {
    return false;
  }
  out = v;
  return true;
}

bool decodeDepart(const FrameView& frame, DepartFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  DepartFrame v;
  if (!c.f64(v.time) || !c.done()) return false;
  out = v;
  return true;
}

bool decodeDepartOk(const FrameView& frame, DepartOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  DepartOkFrame v;
  if (!c.u64(v.drained) || !c.u64(v.openBins) || !c.done()) return false;
  out = v;
  return true;
}

bool decodeBatch(const FrameView& frame, BatchFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  std::uint32_t count;
  if (!c.u32(count)) return false;
  if (count > kMaxBatchOps) return false;
  BatchFrame v;
  v.ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchOp op;
    if (!c.u8(op.kind)) return false;
    if (op.kind == kBatchOpPlace) {
      if (!c.f64(op.place.size) || !c.f64(op.place.arrival) ||
          !c.f64(op.place.departure)) {
        return false;
      }
    } else if (op.kind == kBatchOpDepart) {
      if (!c.f64(op.depart.time)) return false;
    } else {
      return false;
    }
    v.ops.push_back(op);
  }
  if (!c.done()) return false;
  out = std::move(v);
  return true;
}

bool decodeBatchOk(const FrameView& frame, BatchOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  std::uint32_t count;
  if (!c.u32(count)) return false;
  if (count > kMaxBatchOps) return false;
  BatchOkFrame v;
  v.results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchResultEntry r;
    if (!c.u8(r.kind)) return false;
    if (r.kind == kBatchOpPlace) {
      if (!c.u32(r.placed.item) || !c.i32(r.placed.bin) ||
          !c.u8(r.placed.openedNewBin) || !c.i32(r.placed.category)) {
        return false;
      }
    } else if (r.kind == kBatchOpDepart) {
      if (!c.u64(r.depart.drained) || !c.u64(r.depart.openBins)) return false;
    } else {
      return false;
    }
    v.results.push_back(r);
  }
  if (!c.u8(v.failed)) return false;
  if (v.failed != 0) {
    std::uint16_t code;
    if (!c.u32(v.failedIndex) || !c.u16(code) || !c.str16(v.errorMessage)) {
      return false;
    }
    v.errorCode = static_cast<ErrorCode>(code);
  }
  if (!c.done()) return false;
  out = std::move(v);
  return true;
}

bool decodeStatsOk(const FrameView& frame, StatsOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  StatsOkFrame v;
  if (!c.u64(v.items) || !c.u64(v.binsOpened) || !c.u64(v.openBins) ||
      !c.u64(v.pendingDepartures) || !c.u64(v.peakOpenItems) ||
      !c.u64(v.peakResidentBytes) || !c.done()) {
    return false;
  }
  out = v;
  return true;
}

bool decodeDrainOk(const FrameView& frame, DrainOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  DrainOkFrame v;
  if (!c.u64(v.items) || !c.f64(v.totalUsage) || !c.u64(v.binsOpened) ||
      !c.u64(v.maxOpenBins) || !c.u64(v.categoriesUsed) || !c.f64(v.lb3) ||
      !c.u64(v.peakOpenItems) || !c.u64(v.peakResidentBytes) || !c.done()) {
    return false;
  }
  out = v;
  return true;
}

bool decodeScrapeOk(const FrameView& frame, ScrapeOkFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  ScrapeOkFrame v;
  if (!c.str32(v.text) || !c.done()) return false;
  out = std::move(v);
  return true;
}

bool decodeError(const FrameView& frame, ErrorFrame& out) {
  Cursor c(frame.payload, frame.payloadSize);
  std::uint16_t code;
  ErrorFrame v;
  if (!c.u16(code) || !c.str16(v.message) || !c.done()) return false;
  v.code = static_cast<ErrorCode>(code);
  out = std::move(v);
  return true;
}

bool decodeEmpty(const FrameView& frame) { return frame.payloadSize == 0; }

}  // namespace cdbp::serve
