// cdbp-serve wire protocol: the length-prefixed binary frames the
// placement daemon (serve/server.hpp) and its clients (serve/client.hpp)
// exchange. DESIGN.md §13.2 carries the layout table.
//
// Framing:
//
//   frame   := u32 payload_length | payload
//   payload := u8 frame_type | body
//
// All integers are little-endian; doubles travel as the little-endian
// bytes of their IEEE-754 bit pattern (std::bit_cast via u64), so every
// size/time round-trips bit-exactly — the property the serve-vs-
// simulateStream differential suite pins. Strings are u16 length +
// UTF-8-agnostic raw bytes; the SCRAPE text uses a u32 length.
//
// Versioning: this build speaks v2 only. HELLO carries the highest
// version the client understands; the server answers HELLO_OK with v2 to
// any client at v2 or above and rejects v0 and v1 with
// ERROR(protocol-version).
//
// BATCH/BATCH_OK carry many PLACE/DEPART sub-ops for one tenant in one
// frame, executed in order, answered with one combined reply. Sub-ops
// after a failing one do not run; the reply carries the results of the
// completed prefix plus the failing op's index and typed error.
//
// Parsing discipline mirrors util/parse.hpp: every decoder consumes
// explicitly bounded bytes, rejects truncated and over-long bodies with
// `false` (never an exception, never a partial read into `out`), and the
// server answers malformed payloads with a typed kError frame instead of
// disconnecting — the frame boundary is intact, so the stream resyncs.
//
// Session grammar (one session per connection):
//
//   client: HELLO  -> server: HELLO_OK | ERROR
//   client: PLACE  -> server: PLACED   | ERROR     (repeatable)
//   client: DEPART -> server: DEPART_OK| ERROR     (advance virtual time)
//   client: BATCH  -> server: BATCH_OK | ERROR     (repeatable)
//   client: STATS  -> server: STATS_OK | ERROR
//   client: DRAIN  -> server: DRAIN_OK | ERROR     (finishes the session)
//   client: SCRAPE -> server: SCRAPE_OK            (no session required)
//
// Replies come in request order; a typed ERROR answers exactly one
// request (or one undecodable frame) and leaves the connection serving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cdbp::serve {

/// The one protocol version this build speaks: both the floor and the
/// ceiling of HELLO negotiation.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// The version a session speaks after HELLO: kProtocolVersion for any
/// client at or above it, or 0 when `requested` is older (reject with
/// kProtocolVersion).
constexpr std::uint16_t negotiateVersion(std::uint16_t requested) {
  return requested < kProtocolVersion ? 0 : kProtocolVersion;
}

/// Default cap on a frame payload (type byte + body). A length prefix
/// above the server's configured cap is unrecoverable (the stream cannot
/// be resynced without trusting the bogus length), so the server answers
/// kErrOversizedFrame and closes after flushing.
inline constexpr std::size_t kDefaultMaxFramePayload = 64 * 1024;

/// Cap on sub-ops per BATCH frame. 2048 ops × 25 bytes ≈ 50 KiB, inside
/// the default payload cap with headroom; decoders reject larger counts
/// as malformed and Client::Batch refuses to build them.
inline constexpr std::size_t kMaxBatchOps = 2048;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,
  kPlace = 0x02,
  kDepart = 0x03,
  kStats = 0x04,
  kDrain = 0x05,
  kScrape = 0x06,
  kBatch = 0x07,
  // server -> client
  kHelloOk = 0x81,
  kPlaced = 0x82,
  kDepartOk = 0x83,
  kStatsOk = 0x84,
  kDrainOk = 0x85,
  kScrapeOk = 0x86,
  kBatchOk = 0x87,
  kError = 0xFF,
};

enum class ErrorCode : std::uint16_t {
  kMalformedFrame = 1,   ///< payload did not decode as its frame type
  kOversizedFrame = 2,   ///< length prefix above the server's cap (fatal)
  kUnknownFrameType = 3, ///< type byte outside the known request set
  kProtocolVersion = 4,  ///< HELLO version below kProtocolVersion
  kUnknownTenant = 5,    ///< session request before a successful HELLO
  kDuplicateHello = 6,   ///< second HELLO on a connection
  kBadPolicySpec = 7,    ///< makePolicy rejected the HELLO spec
  kBadItem = 8,          ///< PLACE item failed model validation
  kOutOfOrder = 9,       ///< PLACE/DEPART time behind the session watermark
  kSessionFinished = 10, ///< request after DRAIN completed the session
  kBackpressure = 11,    ///< connection shed: client stopped reading
  kInternal = 12,        ///< policy/engine contract violation (fatal)
  // 13 is retired (it was unsupported-version); never reuse it.
};

/// Human-readable mnemonic ("bad-policy-spec") for logs and tests.
const char* errorCodeName(ErrorCode code);

// ---------------------------------------------------------------------------
// Frame bodies. Field order in these structs is wire order.

struct HelloFrame {
  std::uint16_t version = kProtocolVersion;  ///< highest version the client speaks
  std::uint8_t engine = 0;  ///< 0 = indexed, 1 = linear scan
  double minDuration = 0;   ///< PolicyContext::minDuration
  double mu = 1;            ///< PolicyContext::mu
  std::uint64_t seed = 1;   ///< PolicyContext::seed
  std::string tenant;       ///< label for telemetry/tenant table
  std::string policySpec;   ///< makePolicy spec string
};

struct HelloOkFrame {
  std::uint16_t version = kProtocolVersion;  ///< negotiated session version
  std::uint64_t tenantId = 0;
  std::string policyName;  ///< OnlinePolicy::name() of the instantiated policy
};

struct PlaceFrame {
  double size = 0;
  double arrival = 0;
  double departure = 0;
};

struct PlacedFrame {
  std::uint32_t item = 0;  ///< dense per-session item id
  std::int32_t bin = 0;
  std::uint8_t openedNewBin = 0;
  std::int32_t category = 0;
};

struct DepartFrame {
  double time = 0;
};

struct DepartOkFrame {
  std::uint64_t drained = 0;   ///< departures processed by this DEPART
  std::uint64_t openBins = 0;  ///< open bins after the drain
};

// --- batch frames ----------------------------------------------------------

/// Sub-op kinds inside a BATCH frame.
inline constexpr std::uint8_t kBatchOpPlace = 0;
inline constexpr std::uint8_t kBatchOpDepart = 1;

/// One BATCH sub-op: `kind` selects which body field is live.
struct BatchOp {
  std::uint8_t kind = kBatchOpPlace;
  PlaceFrame place;    ///< valid when kind == kBatchOpPlace
  DepartFrame depart;  ///< valid when kind == kBatchOpDepart
};

struct BatchFrame {
  std::vector<BatchOp> ops;  ///< executed in order; at most kMaxBatchOps
};

/// One sub-op result inside BATCH_OK, mirroring the standalone replies.
struct BatchResultEntry {
  std::uint8_t kind = kBatchOpPlace;
  PlacedFrame placed;    ///< valid when kind == kBatchOpPlace
  DepartOkFrame depart;  ///< valid when kind == kBatchOpDepart
};

/// Combined reply: results for the completed prefix of the batch. When
/// `failed` is set, the op at `failedIndex` was rejected with
/// `errorCode`/`errorMessage` and no later op ran — results.size() ==
/// failedIndex. The session stays usable unless the code is kInternal.
struct BatchOkFrame {
  std::vector<BatchResultEntry> results;
  std::uint8_t failed = 0;
  std::uint32_t failedIndex = 0;
  ErrorCode errorCode = ErrorCode::kInternal;
  std::string errorMessage;
};

struct StatsOkFrame {
  std::uint64_t items = 0;
  std::uint64_t binsOpened = 0;
  std::uint64_t openBins = 0;
  std::uint64_t pendingDepartures = 0;
  std::uint64_t peakOpenItems = 0;
  std::uint64_t peakResidentBytes = 0;
};

/// Mirrors StreamResult, field for field; doubles are bit-exact.
struct DrainOkFrame {
  std::uint64_t items = 0;
  double totalUsage = 0;
  std::uint64_t binsOpened = 0;
  std::uint64_t maxOpenBins = 0;
  std::uint64_t categoriesUsed = 0;
  double lb3 = 0;
  std::uint64_t peakOpenItems = 0;
  std::uint64_t peakResidentBytes = 0;
};

struct ScrapeOkFrame {
  std::string text;  ///< telemetry::exposeText output (u32-length string)
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ---------------------------------------------------------------------------
// Encoding: append one complete frame (length prefix included) to `out`.
// STATS/DRAIN/SCRAPE requests have empty bodies.

void appendHello(std::vector<std::uint8_t>& out, const HelloFrame& frame);
void appendHelloOk(std::vector<std::uint8_t>& out, const HelloOkFrame& frame);
void appendPlace(std::vector<std::uint8_t>& out, const PlaceFrame& frame);
void appendPlaced(std::vector<std::uint8_t>& out, const PlacedFrame& frame);
void appendDepart(std::vector<std::uint8_t>& out, const DepartFrame& frame);
void appendDepartOk(std::vector<std::uint8_t>& out, const DepartOkFrame& frame);
void appendBatch(std::vector<std::uint8_t>& out, const BatchFrame& frame);
void appendBatchOk(std::vector<std::uint8_t>& out, const BatchOkFrame& frame);
void appendStats(std::vector<std::uint8_t>& out);
void appendStatsOk(std::vector<std::uint8_t>& out, const StatsOkFrame& frame);
void appendDrain(std::vector<std::uint8_t>& out);
void appendDrainOk(std::vector<std::uint8_t>& out, const DrainOkFrame& frame);
void appendScrape(std::vector<std::uint8_t>& out);
void appendScrapeOk(std::vector<std::uint8_t>& out, const ScrapeOkFrame& frame);
void appendError(std::vector<std::uint8_t>& out, const ErrorFrame& frame);

// ---------------------------------------------------------------------------
// Decoding.

/// One complete frame, extracted from a receive buffer. `payload` points
/// into the caller's buffer (valid until the buffer mutates) and excludes
/// the type byte.
struct FrameView {
  FrameType type = FrameType::kError;
  const std::uint8_t* payload = nullptr;
  std::size_t payloadSize = 0;
};

enum class ExtractStatus {
  kFrame,      ///< `out` holds a frame; consume `consumed` bytes
  kNeedMore,   ///< buffer holds a partial frame; read more bytes
  kOversized,  ///< length prefix exceeds maxPayload — unrecoverable
};

/// Scans the start of [data, data+size) for one frame. On kFrame, sets
/// `out` and `consumed` (prefix + payload). An empty payload (length 0,
/// missing even the type byte) decodes as kFrame with a payload the
/// body decoders reject — the server answers it with kMalformedFrame.
ExtractStatus extractFrame(const std::uint8_t* data, std::size_t size,
                           std::size_t maxPayload, FrameView& out,
                           std::size_t& consumed);

/// Body decoders: return false on truncated/over-long bodies without
/// touching `out`. The FrameView payload excludes the type byte.
bool decodeHello(const FrameView& frame, HelloFrame& out);
bool decodeHelloOk(const FrameView& frame, HelloOkFrame& out);
bool decodePlace(const FrameView& frame, PlaceFrame& out);
bool decodePlaced(const FrameView& frame, PlacedFrame& out);
bool decodeDepart(const FrameView& frame, DepartFrame& out);
bool decodeDepartOk(const FrameView& frame, DepartOkFrame& out);
bool decodeBatch(const FrameView& frame, BatchFrame& out);
bool decodeBatchOk(const FrameView& frame, BatchOkFrame& out);
bool decodeStatsOk(const FrameView& frame, StatsOkFrame& out);
bool decodeDrainOk(const FrameView& frame, DrainOkFrame& out);
bool decodeScrapeOk(const FrameView& frame, ScrapeOkFrame& out);
bool decodeError(const FrameView& frame, ErrorFrame& out);

/// True for the empty-body requests (STATS/DRAIN/SCRAPE): their payload
/// must be exactly the type byte.
bool decodeEmpty(const FrameView& frame);

}  // namespace cdbp::serve
