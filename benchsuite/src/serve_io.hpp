// The daemon under test as a child process, and a nonblocking framed
// connection for the open-loop load generator.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace bench {

/// `cdbp_served --listen unix:<socket> --threads <n>` as a child process,
/// its output going to `logPath`. The destructor stops it.
class Daemon {
 public:
  Daemon(const std::string& served, const std::string& socket, unsigned threads,
         const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  bool running();
  /// SIGTERM (the daemon drains gracefully) and wait; true on exit code 0.
  bool stop();

 private:
  pid_t pid_ = -1;
};

/// One nonblocking Unix-socket connection speaking cdbp-serve frames.
class Conn {
 public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to `path`, retrying while the daemon starts up (until
  /// `deadlineNs` or until `daemon` exits). Throws std::runtime_error.
  void open(const std::string& path, std::uint64_t deadlineNs, Daemon& daemon);
  void close();
  int fd() const { return fd_; }
  bool isOpen() const { return fd_ >= 0; }

  /// Bytes queued for sending; append frames here.
  std::vector<std::uint8_t> out;
  /// Sends as much of `out` as the socket takes; false when the peer is gone.
  bool flush();
  /// Reads what the socket holds; false on EOF or error.
  bool receive();
  /// Extracts the next complete frame. The view points into this
  /// connection's buffer and is valid until the next receive().
  bool nextFrame(cdbp::serve::FrameView& frame);

  std::uint64_t writes = 0;  ///< send() calls that moved bytes

 private:
  int fd_ = -1;
  std::size_t outPos_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t inPos_ = 0;
};

/// Value of a counter in a SCRAPE exposition ("cdbp_<name with _>"); 0 when
/// absent.
std::uint64_t scrapeCounter(const std::string& text, const std::string& name);

}  // namespace bench
