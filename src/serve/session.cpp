#include "serve/session.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "telemetry/expose.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp::serve {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

// Headroom above writeBufferLimit before a connection is shed. Processing
// stops at the limit and no single reply exceeds maxFramePayload + the
// frame overhead, so in practice the hard cap is unreachable unless a
// reply itself is pathological.
constexpr std::size_t kShedHeadroom = 1024;

// Update the shared tenant row every Nth placement rather than on each
// one: the table is a cross-shard mutex and PLACE is the hot path.
constexpr std::uint64_t kTenantNoteInterval = 64;

}  // namespace

Session::Session(int fd, const ServerOptions& options, TenantTable& tenants,
                 ShardCounters& counters)
    : fd_(fd), options_(options), tenants_(tenants), counters_(counters) {}

std::uint32_t Session::desiredInterest() const {
  std::uint32_t want = 0;
  if (!readPaused_ && !peerClosed_ && !closing_) want |= EPOLLIN;
  if (pendingWrite() > 0) want |= EPOLLOUT;
  return want;
}

void Session::onReadable() {
  std::uint8_t chunk[kReadChunk];
  while (!readPaused_ && !closing_ && !dead_) {
    ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + got);
      counters_.bytesReceived.fetch_add(static_cast<std::uint64_t>(got),
                                        std::memory_order_relaxed);
      processBufferedFrames();
      // A partial frame cannot exceed the payload cap plus framing: the
      // extractor flags oversized prefixes as soon as they are visible.
      if (got < static_cast<ssize_t>(sizeof(chunk))) break;
      continue;
    }
    if (got == 0) {
      peerClosed_ = true;
      processBufferedFrames();
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    dead_ = true;
    return;
  }
  pump();
}

void Session::onWritable() { pump(); }

void Session::pump() {
  while (!dead_) {
    flushWrites();
    if (dead_) return;
    // Below the resume threshold with requests still buffered: pick them
    // back up. The loop re-pauses (and re-flushes) as replies accumulate,
    // so the write buffer never exceeds the limit by more than one reply.
    if (readPaused_ && !closing_ && !drainMode_ &&
        pendingWrite() <= options_.writeBufferLimit / 2) {
      readPaused_ = false;
      std::size_t before = rbuf_.size() - rpos_;
      processBufferedFrames();
      if (readPaused_ || rbuf_.size() - rpos_ != before) continue;
    }
    break;
  }
}

void Session::beginDrain() {
  drainMode_ = true;
  readPaused_ = true;  // no new requests during the drain
  processBufferedFrames();
  flushWrites();
}

void Session::flush() { flushWrites(); }

void Session::noteClosed() {
  if (tenantId_ != 0) tenants_.markFinished(tenantId_);
}

void Session::processBufferedFrames() {
  while (!closing_ && !dead_) {
    // Backpressure: once the write buffer crosses the limit, leave the
    // remaining (already received) requests unprocessed in rbuf_. They
    // resume when the client reads. A graceful drain overrides the limit
    // so every fully-received request is answered before exit.
    if (!drainMode_ && pendingWrite() > options_.writeBufferLimit) {
      if (!readPaused_) {
        readPaused_ = true;
        counters_.throttleEvents.fetch_add(1, std::memory_order_relaxed);
        CDBP_TELEM_COUNT("serve.throttles", 1);
      }
      break;
    }
    if (pendingWrite() >
        options_.writeBufferLimit + options_.maxFramePayload + kShedHeadroom) {
      // Unreachable with well-formed replies; shed defensively.
      closing_ = true;
      counters_.shedConnections.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    FrameView frame;
    std::size_t consumed = 0;
    ExtractStatus status =
        extractFrame(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                     options_.maxFramePayload, frame, consumed);
    if (status == ExtractStatus::kNeedMore) break;
    if (status == ExtractStatus::kOversized) {
      counters_.framesReceived.fetch_add(1, std::memory_order_relaxed);
      sendError(ErrorCode::kOversizedFrame,
                "frame length prefix exceeds the payload cap");
      closing_ = true;  // cannot resync past an untrusted length
      break;
    }
    rpos_ += consumed;
    counters_.framesReceived.fetch_add(1, std::memory_order_relaxed);
    CDBP_TELEM_COUNT("serve.frames_rx", 1);
    if (tenantBytes_ != nullptr) {
      tenantBytes_->add(static_cast<std::uint64_t>(consumed));
    }
    handleFrame(frame);
  }
  // Compact the consumed prefix so rbuf_ stays proportional to what is
  // actually pending.
  if (rpos_ > 0) {
    if (rpos_ == rbuf_.size()) {
      rbuf_.clear();
    } else {
      rbuf_.erase(rbuf_.begin(),
                  rbuf_.begin() + static_cast<std::ptrdiff_t>(rpos_));
    }
    rpos_ = 0;
  }
}

void Session::handleFrame(const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      handleHello(frame);
      return;
    case FrameType::kPlace:
    case FrameType::kDepart:
      handleOp(frame);
      return;
    case FrameType::kBatch:
      handleBatch(frame);
      return;
    case FrameType::kStats:
      if (!decodeEmpty(frame)) {
        sendError(ErrorCode::kMalformedFrame, "STATS carries no body");
        return;
      }
      handleStats();
      return;
    case FrameType::kDrain:
      if (!decodeEmpty(frame)) {
        sendError(ErrorCode::kMalformedFrame, "DRAIN carries no body");
        return;
      }
      handleDrainRequest();
      return;
    case FrameType::kScrape:
      if (!decodeEmpty(frame)) {
        sendError(ErrorCode::kMalformedFrame, "SCRAPE carries no body");
        return;
      }
      handleScrape();
      return;
    case FrameType::kError:
      // The extractor's tag for a zero-length frame (no type byte).
      sendError(ErrorCode::kMalformedFrame, "empty frame");
      return;
    default:
      // Unknown type bytes are answered, never disconnected: a newer
      // client talking to this server gets a typed error per frame and
      // can degrade. The frame boundary is intact, so the stream resyncs.
      sendError(ErrorCode::kUnknownFrameType,
                "unknown frame type " +
                    std::to_string(static_cast<unsigned>(frame.type)));
      return;
  }
}

bool Session::requireSession(const char* verb) {
  if (!hasTenant()) {
    sendError(ErrorCode::kUnknownTenant,
              std::string(verb) + " before HELLO");
    return false;
  }
  if (finished_) {
    sendError(ErrorCode::kSessionFinished,
              std::string(verb) + " after DRAIN");
    return false;
  }
  return true;
}

void Session::handleHello(const FrameView& frame) {
  HelloFrame hello;
  if (!decodeHello(frame, hello)) {
    sendError(ErrorCode::kMalformedFrame, "undecodable HELLO body");
    return;
  }
  if (negotiateVersion(hello.version) == 0) {
    sendError(ErrorCode::kProtocolVersion,
              "server speaks cdbp-serve v" + std::to_string(kProtocolVersion) +
                  ", client sent v" + std::to_string(hello.version));
    return;
  }
  if (hasTenant()) {
    sendError(ErrorCode::kDuplicateHello,
              "connection already carries a session for tenant '" + tenant_ +
                  "'");
    return;
  }
  PolicyContext context;
  context.minDuration = hello.minDuration;
  context.mu = hello.mu;
  context.seed = hello.seed;
  PolicyPtr policy;
  try {
    policy = makePolicy(hello.policySpec, context);
  } catch (const std::exception& e) {
    sendError(ErrorCode::kBadPolicySpec, e.what());
    return;
  }

  StreamOptions streamOptions;
  streamOptions.engine = hello.engine == 1 ? PlacementEngine::kLinearScan
                                           : PlacementEngine::kIndexed;
  auto engine = std::make_unique<StreamEngine>(*policy, streamOptions);

  HelloOkFrame ok;  // version: kProtocolVersion, the one we speak
  ok.policyName = policy->name();
  tenantId_ = tenants_.open(hello.tenant, ok.policyName);
  ok.tenantId = tenantId_;
  tenant_ = hello.tenant;
  policy_ = std::move(policy);
  engine_ = std::move(engine);
  counters_.sessionsOpened.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::kEnabled) {
    // Dynamic metric names cannot go through the CDBP_TELEM_* macros
    // (they cache a static reference on first use); resolve the
    // per-tenant counters once here and hit the atomics directly.
    auto& registry = telemetry::Registry::global();
    std::string prefix = "serve.tenant." + std::to_string(tenantId_);
    tenantPlacements_ = &registry.counter(prefix + ".placements");
    tenantBytes_ = &registry.counter(prefix + ".bytes");
    tenantUsage_ = &registry.counter(prefix + ".usage");
  }
  std::vector<std::uint8_t> reply;
  appendHelloOk(reply, ok);
  sendBytes(reply);
}

void Session::handleOp(const FrameView& frame) {
  const bool isPlace = frame.type == FrameType::kPlace;
  if (!requireSession(isPlace ? "PLACE" : "DEPART")) return;
  BatchOp op;
  op.kind = isPlace ? kBatchOpPlace : kBatchOpDepart;
  const bool decoded = isPlace ? decodePlace(frame, op.place)
                                : decodeDepart(frame, op.depart);
  if (!decoded) {
    sendError(ErrorCode::kMalformedFrame, isPlace ? "undecodable PLACE body"
                                                  : "undecodable DEPART body");
    return;
  }
  BatchResultEntry result;
  if (std::optional<ErrorFrame> error = execute(op, result)) {
    sendError(error->code, error->message);
    return;
  }
  std::vector<std::uint8_t> bytes;
  if (isPlace) {
    CDBP_TELEM_COUNT("serve.placements", 1);
    counters_.placements.fetch_add(1, std::memory_order_relaxed);
    if (tenantPlacements_ != nullptr) tenantPlacements_->add(1);
    ++placementsSinceNote_;
    noteTenantProgress(/*force=*/false);
    appendPlaced(bytes, result.placed);
  } else {
    noteTenantProgress(/*force=*/true);
    appendDepartOk(bytes, result.depart);
  }
  sendBytes(bytes);
}

void Session::handleBatch(const FrameView& frame) {
  if (!requireSession("BATCH")) return;
  BatchFrame batch;
  if (!decodeBatch(frame, batch)) {
    sendError(ErrorCode::kMalformedFrame, "undecodable BATCH body");
    return;
  }

  BatchOkFrame ok;
  ok.results.reserve(batch.ops.size());
  std::uint64_t placed = 0;
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    BatchResultEntry result;
    if (std::optional<ErrorFrame> error = execute(batch.ops[i], result)) {
      ok.failed = 1;
      ok.failedIndex = static_cast<std::uint32_t>(i);
      ok.errorCode = error->code;
      ok.errorMessage = std::move(error->message);
      break;
    }
    if (result.kind == kBatchOpPlace) ++placed;
    ok.results.push_back(result);
  }

  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  CDBP_TELEM_COUNT("serve.batches", 1);
  if (placed > 0) {
    CDBP_TELEM_COUNT("serve.placements", placed);
    counters_.placements.fetch_add(placed, std::memory_order_relaxed);
    if (tenantPlacements_ != nullptr) tenantPlacements_->add(placed);
    placementsSinceNote_ += placed;
  }
  noteTenantProgress(/*force=*/true);
  std::vector<std::uint8_t> bytes;
  appendBatchOk(bytes, ok);
  sendBytes(bytes);
}

std::optional<ErrorFrame> Session::execute(const BatchOp& op,
                                           BatchResultEntry& result) {
  StreamEngine& engine = *engine_;
  const bool isPlace = op.kind == kBatchOpPlace;
  const double time = isPlace ? op.place.arrival : op.depart.time;
  if (time < engine.timeWatermark()) {
    return ErrorFrame{ErrorCode::kOutOfOrder,
                      (isPlace ? "PLACE arrival " : "DEPART time ") +
                          std::to_string(time) +
                          " behind the session watermark " +
                          std::to_string(engine.timeWatermark())};
  }
  result.kind = op.kind;
  try {
    if (isPlace) {
      CDBP_TELEM_SCOPED_TIMER(timer, "serve.place_ns");
      StreamEngine::Placement placed = engine.place(
          StreamItem{op.place.size, op.place.arrival, op.place.departure});
      result.placed.item = placed.item;
      result.placed.bin = placed.bin;
      result.placed.openedNewBin = placed.openedNewBin ? 1 : 0;
      result.placed.category = placed.category;
    } else {
      result.depart.drained = engine.drainUntil(op.depart.time);
      result.depart.openBins = engine.openBins();
    }
  } catch (const std::invalid_argument& e) {
    return ErrorFrame{ErrorCode::kBadItem, e.what()};  // bad size, NaN time
  } catch (const std::logic_error& e) {
    // A policy/engine contract violation is a server-side bug; the
    // session is no longer trustworthy.
    finished_ = true;
    return ErrorFrame{ErrorCode::kInternal, e.what()};
  }
  return std::nullopt;
}

void Session::handleStats() {
  if (!requireSession("STATS")) return;
  const StreamEngine& engine = *engine_;
  StatsOkFrame ok;
  ok.items = engine.itemsPlaced();
  ok.binsOpened = engine.binsOpened();
  ok.openBins = engine.openBins();
  ok.pendingDepartures = engine.pendingDepartures();
  ok.peakOpenItems = engine.peakOpenItems();
  ok.peakResidentBytes = engine.peakResidentBytes();
  noteTenantProgress(/*force=*/true);
  std::vector<std::uint8_t> bytes;
  appendStatsOk(bytes, ok);
  sendBytes(bytes);
}

void Session::handleDrainRequest() {
  if (!requireSession("DRAIN")) return;
  StreamResult result = engine_->finish();
  finished_ = true;
  DrainOkFrame ok;
  ok.items = result.items;
  ok.totalUsage = result.totalUsage;
  ok.binsOpened = result.binsOpened;
  ok.maxOpenBins = result.maxOpenBins;
  ok.categoriesUsed = result.categoriesUsed;
  ok.lb3 = result.lb3;
  ok.peakOpenItems = result.peakOpenItems;
  ok.peakResidentBytes = result.peakResidentBytes;
  counters_.sessionsFinished.fetch_add(1, std::memory_order_relaxed);
  tenants_.markFinished(tenantId_, result.items, /*openBins=*/0);
  if (tenantUsage_ != nullptr && result.totalUsage > 0) {
    tenantUsage_->add(
        static_cast<std::uint64_t>(std::llround(result.totalUsage)));
  }
  // The engine and policy are spent; release their bin state eagerly so
  // long-lived connections do not pin finished sessions in memory.
  engine_.reset();
  policy_.reset();
  std::vector<std::uint8_t> bytes;
  appendDrainOk(bytes, ok);
  sendBytes(bytes);
}

void Session::handleScrape() {
  CDBP_TELEM_COUNT("serve.scrapes", 1);
  ScrapeOkFrame ok;
  ok.text = telemetry::exposeTextString(telemetry::Registry::global());
  std::vector<std::uint8_t> bytes;
  appendScrapeOk(bytes, ok);
  sendBytes(bytes);
}

void Session::noteTenantProgress(bool force) {
  if (tenantId_ == 0 || engine_ == nullptr) return;
  if (!force && placementsSinceNote_ < kTenantNoteInterval) return;
  placementsSinceNote_ = 0;
  tenants_.noteProgress(tenantId_, engine_->itemsPlaced(),
                        engine_->openBins());
}

void Session::sendError(ErrorCode code, const std::string& message) {
  ErrorFrame error;
  error.code = code;
  error.message = message;
  std::vector<std::uint8_t> bytes;
  appendError(bytes, error);
  sendBytes(bytes);
  counters_.errorsSent.fetch_add(1, std::memory_order_relaxed);
  CDBP_TELEM_COUNT("serve.errors", 1);
}

void Session::sendBytes(const std::vector<std::uint8_t>& bytes) {
  wbuf_.insert(wbuf_.end(), bytes.begin(), bytes.end());
  CDBP_TELEM_COUNT("serve.frames_tx", 1);
  counters_.framesSent.fetch_add(1, std::memory_order_relaxed);
  if (tenantBytes_ != nullptr) {
    tenantBytes_->add(static_cast<std::uint64_t>(bytes.size()));
  }
  std::size_t pending = pendingWrite();
  if (pending > counters_.peakWriteBuffered()) {
    counters_.noteWriteBuffered(pending);
    CDBP_TELEM_GAUGE_SET("serve.write_buffered_bytes", pending);
  }
}

void Session::flushWrites() {
  while (pendingWrite() > 0) {
    ssize_t sent =
        send(fd_, wbuf_.data() + wpos_, pendingWrite(), MSG_NOSIGNAL);
    if (sent > 0) {
      wpos_ += static_cast<std::size_t>(sent);
      counters_.bytesSent.fetch_add(static_cast<std::uint64_t>(sent),
                                    std::memory_order_relaxed);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    dead_ = true;
    return;
  }
  if (wpos_ == wbuf_.size()) {
    wbuf_.clear();
    wpos_ = 0;
  } else if (wpos_ > 64 * 1024) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + static_cast<std::ptrdiff_t>(wpos_));
    wpos_ = 0;
  }
}

}  // namespace cdbp::serve
