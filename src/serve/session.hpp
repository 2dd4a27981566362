// Session: the per-connection cdbp-serve state machine (DESIGN.md §13.3).
//
// One Session per accepted/adopted fd, owned by exactly one Loop and
// touched only from that loop's thread — which is what keeps the
// per-tenant StreamEngine single-threaded and the served placements
// bit-identical to local simulateStream runs even on a sharded server.
// Cross-thread visibility goes exclusively through the ShardCounters
// atomics and the shared TenantTable; nothing here takes a lock on the
// frame-processing path.
//
// The Session owns the bounded read/write buffers, frame parsing, the
// protocol state machine (HELLO negotiation through DRAIN), and the
// tenant's policy + engine. The owning Loop drives it through a narrow
// surface: onReadable()/onWritable() on epoll events, desiredInterest()
// to re-arm epoll, dead()/shouldClose() to reap it, and
// beginDrain()/flush() during graceful shutdown. A Session never closes
// or erases itself — it flags dead() and lets the Loop destroy it, so
// there is no self-erase reentrancy anywhere in the dispatch path.
//
// Backpressure (§13.4) is per-connection and unchanged from the
// single-loop daemon: processing pauses when the write buffer crosses
// options.writeBufferLimit, resumes below half, and a connection whose
// buffer somehow exceeds limit + maxFramePayload + headroom is shed with
// kBackpressure semantics (counted in ShardCounters::shedConnections).
//
// Version negotiation: the session speaks v2 only. HELLO from a client
// at v2 or above opens a v2 session; v0 and v1 get a typed
// ERROR(protocol-version) and the connection keeps serving.
//
// One op path: a standalone PLACE or DEPART frame and every sub-op of a
// BATCH run through the same executor (execute()), so the watermark
// check, the engine call and the exception-to-error mapping are written
// once and a served op behaves the same however it was framed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "online/policy_factory.hpp"
#include "serve/protocol.hpp"
#include "serve/types.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"

namespace cdbp::serve {

class Session {
 public:
  /// Takes ownership of nothing: the Loop owns the fd and closes it when
  /// it destroys the Session. `options` must outlive the session (the
  /// Server owns it); `tenants` and `counters` are the shared tenant
  /// table and the owning shard's counters.
  Session(int fd, const ServerOptions& options, TenantTable& tenants,
          ShardCounters& counters);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int fd() const { return fd_; }

  /// Drains the socket into the read buffer, processes complete frames,
  /// and pumps (flush / backpressure-resume) until the connection
  /// quiesces. Sets dead() on a read error.
  void onReadable();

  /// Flush-and-resume pump for EPOLLOUT readiness.
  void onWritable();

  /// True once the connection hit an unrecoverable condition (socket
  /// error, shed) — the Loop must destroy the session and close the fd.
  bool dead() const { return dead_; }

  /// True when the session has finished naturally: peer closed or the
  /// session is closing, and every buffered reply has been flushed.
  bool shouldClose() const {
    return (closing_ || peerClosed_) && pendingWrite() == 0;
  }

  /// epoll interest matching the current state: EPOLLIN unless paused/
  /// closing, EPOLLOUT while replies are buffered. The Loop caches the
  /// last applied mask via appliedInterest().
  std::uint32_t desiredInterest() const;
  std::uint32_t appliedInterest() const { return appliedInterest_; }
  void setAppliedInterest(std::uint32_t mask) { appliedInterest_ = mask; }

  std::size_t pendingWrite() const { return wbuf_.size() - wpos_; }

  /// Graceful drain, step 1 (loop thread): stop reading, answer every
  /// fully-received request regardless of backpressure, start flushing.
  void beginDrain();

  /// Graceful drain, step 2: one flush attempt (non-blocking). The Loop
  /// polls EPOLLOUT and calls this until pendingWrite() hits 0 or the
  /// drain deadline expires.
  void flush();

  /// True after a session was opened by HELLO (used by tests/telemetry).
  bool hasTenant() const { return tenantId_ != 0; }
  std::uint64_t tenantId() const { return tenantId_; }

  /// Called by the Loop just before it destroys the session: flags the
  /// tenant row finished (a closed connection can never serve its tenant
  /// again) without disturbing the final items/openBins columns.
  void noteClosed();

 private:
  void pump();
  void processBufferedFrames();
  void handleFrame(const FrameView& frame);
  void handleHello(const FrameView& frame);
  void handleOp(const FrameView& frame);  // a standalone PLACE or DEPART
  void handleBatch(const FrameView& frame);
  /// The one op executor: runs a PLACE or DEPART against the tenant's
  /// engine and fills `result`, or returns the typed error (out-of-order,
  /// bad item, or internal, which also finishes the session). Counters
  /// and the reply stay with the caller. Allocates nothing on success.
  std::optional<ErrorFrame> execute(const BatchOp& op,
                                    BatchResultEntry& result);
  void handleStats();
  void handleDrainRequest();
  void handleScrape();
  /// Session preconditions shared by PLACE/DEPART/BATCH/STATS/DRAIN:
  /// sends the right typed error and returns false when not serviceable.
  bool requireSession(const char* verb);
  void sendError(ErrorCode code, const std::string& message);
  void sendBytes(const std::vector<std::uint8_t>& bytes);
  void flushWrites();
  void noteTenantProgress(bool force);

  const int fd_;
  const ServerOptions& options_;
  TenantTable& tenants_;
  ShardCounters& counters_;

  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;  // parse offset into rbuf_
  std::vector<std::uint8_t> wbuf_;
  std::size_t wpos_ = 0;  // flush offset into wbuf_

  bool readPaused_ = false;  // backpressure: EPOLLIN dropped
  bool closing_ = false;     // close once wbuf_ flushes
  bool peerClosed_ = false;  // read side saw EOF
  bool dead_ = false;        // Loop must reap immediately
  bool drainMode_ = false;   // beginDrain(): backpressure limit overridden
  std::uint32_t appliedInterest_ = 0;

  // Tenant session state, created by HELLO.
  std::uint64_t tenantId_ = 0;  // 0 until HELLO succeeds (ids start at 1)
  std::string tenant_;
  PolicyPtr policy_;
  std::unique_ptr<StreamEngine> engine_;
  bool finished_ = false;
  std::uint64_t placementsSinceNote_ = 0;

  // Per-tenant counters (serve.tenant.<id>.*), resolved once at HELLO.
  // Null when telemetry is compiled out. These are registry references,
  // valid for the process lifetime.
  telemetry::Counter* tenantPlacements_ = nullptr;
  telemetry::Counter* tenantBytes_ = nullptr;
  telemetry::Counter* tenantUsage_ = nullptr;
};

}  // namespace cdbp::serve
