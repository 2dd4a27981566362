#include "serve/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace cdbp::serve {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Reply payload cap. Larger than the server's request cap because a
// SCRAPE reply carries the whole telemetry exposition.
constexpr std::size_t kMaxReplyPayload = 4 * 1024 * 1024;

}  // namespace

Client::Client(int fd) : fd_(fd) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rbuf_(std::move(other.rbuf_)),
      rpos_(other.rpos_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    rbuf_ = std::move(other.rbuf_);
    rpos_ = other.rpos_;
  }
  return *this;
}

Client Client::connect(const Address& address) {
  return Client(connectStream(address));
}

Client Client::connectUnix(const std::string& path) {
  Address address;
  address.kind = Address::Kind::kUnix;
  address.path = path;
  return connect(address);
}

Client Client::connectTcp(const std::string& host, std::uint16_t port) {
  Address address;
  address.kind = Address::Kind::kTcp;
  address.host = host;
  address.port = port;
  return connect(address);
}

void Client::sendAll(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throwErrno("send");
  }
}

void Client::sendRaw(const std::vector<std::uint8_t>& bytes) {
  sendAll(bytes.data(), bytes.size());
}

OwnedFrame Client::readFrame() {
  while (true) {
    FrameView frame;
    std::size_t consumed = 0;
    ExtractStatus status =
        extractFrame(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                     kMaxReplyPayload, frame, consumed);
    if (status == ExtractStatus::kFrame) {
      OwnedFrame owned;
      owned.type = frame.type;
      owned.payload.assign(frame.payload, frame.payload + frame.payloadSize);
      rpos_ += consumed;
      if (rpos_ == rbuf_.size()) {
        rbuf_.clear();
        rpos_ = 0;
      }
      return owned;
    }
    if (status == ExtractStatus::kOversized) {
      throw std::runtime_error("reply frame exceeds the client payload cap");
    }
    std::uint8_t chunk[64 * 1024];
    ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + got);
      continue;
    }
    if (got == 0) {
      throw std::runtime_error("server closed the connection mid-reply");
    }
    if (errno == EINTR) continue;
    throwErrno("recv");
  }
}

OwnedFrame Client::expectFrame(FrameType expected) {
  OwnedFrame frame = readFrame();
  if (frame.type == FrameType::kError) {
    ErrorFrame error;
    if (!decodeError(frame.view(), error)) {
      throw std::runtime_error("undecodable error reply");
    }
    throw ServeError(error.code, error.message);
  }
  if (frame.type != expected) {
    throw std::runtime_error(
        "unexpected reply type " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  return frame;
}

template <typename Reply>
Reply Client::roundTrip(const std::vector<std::uint8_t>& request,
                        FrameType replyType,
                        bool (*decode)(const FrameView&, Reply&)) {
  sendAll(request.data(), request.size());
  Reply reply;
  if (!decode(expectFrame(replyType).view(), reply)) {
    throw std::runtime_error(
        "undecodable reply of type " +
        std::to_string(static_cast<unsigned>(replyType)));
  }
  return reply;
}

HelloOkFrame Client::hello(const HelloFrame& helloIn) {
  std::vector<std::uint8_t> bytes;
  appendHello(bytes, helloIn);
  return roundTrip(bytes, FrameType::kHelloOk, decodeHelloOk);
}

PlacedFrame Client::place(double size, double arrival, double departure) {
  std::vector<std::uint8_t> bytes;
  appendPlace(bytes, PlaceFrame{size, arrival, departure});
  return roundTrip(bytes, FrameType::kPlaced, decodePlaced);
}

DepartOkFrame Client::departUntil(double time) {
  std::vector<std::uint8_t> bytes;
  appendDepart(bytes, DepartFrame{time});
  return roundTrip(bytes, FrameType::kDepartOk, decodeDepartOk);
}

StatsOkFrame Client::stats() {
  std::vector<std::uint8_t> bytes;
  appendStats(bytes);
  return roundTrip(bytes, FrameType::kStatsOk, decodeStatsOk);
}

DrainOkFrame Client::drain() {
  std::vector<std::uint8_t> bytes;
  appendDrain(bytes);
  return roundTrip(bytes, FrameType::kDrainOk, decodeDrainOk);
}

std::string Client::scrape() {
  std::vector<std::uint8_t> bytes;
  appendScrape(bytes);
  return roundTrip(bytes, FrameType::kScrapeOk, decodeScrapeOk).text;
}

// --- batch builder ---------------------------------------------------------

Client::Batch& Client::Batch::place(double size, double arrival,
                                    double departure) {
  BatchOp op;
  op.kind = kBatchOpPlace;
  op.place = PlaceFrame{size, arrival, departure};
  frame_.ops.push_back(op);
  return *this;
}

Client::Batch& Client::Batch::depart(double time) {
  BatchOp op;
  op.kind = kBatchOpDepart;
  op.depart = DepartFrame{time};
  frame_.ops.push_back(op);
  return *this;
}

BatchOkFrame Client::Batch::send() { return client_->sendBatch(frame_); }

BatchOkFrame Client::sendBatch(const BatchFrame& frame) {
  if (frame.ops.size() > kMaxBatchOps) {
    throw std::logic_error("BATCH of " + std::to_string(frame.ops.size()) +
                           " ops exceeds kMaxBatchOps");
  }
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, frame);
  return roundTrip(bytes, FrameType::kBatchOk, decodeBatchOk);
}

}  // namespace cdbp::serve
