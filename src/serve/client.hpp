// Blocking client for the cdbp-serve protocol (DESIGN.md §13).
//
// One Client wraps one connected stream socket and speaks request/reply:
// every call encodes a frame, sends it, and blocks for the matching
// reply. A kError reply surfaces as a thrown ServeError carrying the
// typed code, so callers distinguish "the server rejected this request"
// (recoverable — the connection keeps serving) from transport failure
// (std::runtime_error — the connection is gone).
//
// Versioning: hello() offers kProtocolVersion (v2), the one version the
// server speaks.
//
// Batching: batch() builds one BATCH frame of PLACE/DEPART sub-ops and
// send() returns the combined BATCH_OK — including partial results when
// an op mid-batch failed. It is the client's one way to keep the socket
// full without one round trip per item; bench_serve's Pipelined series
// sends its bursts through it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/address.hpp"
#include "serve/protocol.hpp"

namespace cdbp::serve {

/// A typed error reply from the server. The connection remains usable
/// (the server answers malformed or rejected requests without closing).
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(errorCodeName(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One reply frame with owned payload bytes.
struct OwnedFrame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;

  FrameView view() const {
    return FrameView{type, payload.data(), payload.size()};
  }
};

class Client {
 public:
  /// Builder for one BATCH frame. Obtained from Client::batch(); ops
  /// accumulate in order and send() performs the round trip:
  ///
  ///   BatchOkFrame ok = client.batch()
  ///                         .place(0.5, 0.0, 4.0)
  ///                         .place(0.25, 1.0, 3.0)
  ///                         .depart(2.0)
  ///                         .send();
  ///
  /// send() returns the BATCH_OK as-is — a mid-batch failure is data
  /// (results for the completed prefix + the failing op's index and
  /// code), not an exception; only a top-level ERROR reply throws
  /// ServeError (before hello() that is kUnknownTenant). Sending more
  /// than kMaxBatchOps ops throws std::logic_error.
  class Batch {
   public:
    Batch& place(double size, double arrival, double departure);
    Batch& depart(double time);
    std::size_t size() const { return frame_.ops.size(); }
    BatchOkFrame send();

   private:
    friend class Client;
    explicit Batch(Client& client) : client_(&client) {}

    Client* client_;
    BatchFrame frame_;
  };

  /// Adopts a connected stream socket (e.g. one end of a socketpair).
  explicit Client(int fd);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to the address (serve/address.hpp owns the socket
  /// conventions). Throws std::system_error on connect failure.
  static Client connect(const Address& address);
  static Client connectUnix(const std::string& path);
  static Client connectTcp(const std::string& host, std::uint16_t port);

  /// Opens the session: sends HELLO and returns the HELLO_OK. Throws
  /// ServeError on a typed rejection (bad spec, version below v2, ...).
  HelloOkFrame hello(const HelloFrame& hello);

  /// One placement round trip.
  PlacedFrame place(double size, double arrival, double departure);

  /// Advances the session clock, draining departures due at or before
  /// `time`.
  DepartOkFrame departUntil(double time);

  /// Starts an empty batch builder (see Batch).
  Batch batch() { return Batch(*this); }

  StatsOkFrame stats();

  /// Finishes the session and returns the final StreamResult mirror.
  DrainOkFrame drain();

  /// Fetches the server's telemetry exposition text.
  std::string scrape();

  /// Sends raw pre-encoded bytes — robustness tests use this to deliver
  /// malformed, truncated, or oversized frames.
  void sendRaw(const std::vector<std::uint8_t>& bytes);

  /// Blocks for the next reply frame of any type. Throws
  /// std::runtime_error when the server closes the connection first.
  OwnedFrame readFrame();

  /// Blocks for the next reply and throws ServeError if it is kError;
  /// otherwise requires the expected type.
  OwnedFrame expectFrame(FrameType expected);

  int fd() const { return fd_; }

 private:
  BatchOkFrame sendBatch(const BatchFrame& frame);
  void sendAll(const std::uint8_t* data, std::size_t size);
  /// One request/reply exchange: sends the encoded `request`, reads the
  /// `replyType` frame and decodes it.
  template <typename Reply>
  Reply roundTrip(const std::vector<std::uint8_t>& request,
                  FrameType replyType,
                  bool (*decode)(const FrameView&, Reply&));

  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;
};

}  // namespace cdbp::serve
