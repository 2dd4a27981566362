#include "serve_io.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace bench {

Daemon::Daemon(const std::string& served, const std::string& socket,
               unsigned threads, const std::string& logPath) {
  ::unlink(socket.c_str());
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::string listen = "unix:" + socket;
  std::string threadCount = std::to_string(threads);
  std::vector<char*> argv = {const_cast<char*>(served.c_str()),
                             const_cast<char*>("--listen"),
                             const_cast<char*>(listen.c_str()),
                             const_cast<char*>("--threads"),
                             const_cast<char*>(threadCount.c_str()), nullptr};
  int rc = posix_spawn(&pid_, served.c_str(), &actions, nullptr, argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + served + ": " + std::strerror(rc));
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::running() {
  if (pid_ < 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

bool Daemon::stop() {
  if (pid_ < 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  // The daemon drains within its 5 s default deadline; kill it if not.
  for (int i = 0; i < 1000; ++i) {
    pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

Conn::Conn(Conn&& other) noexcept { *this = std::move(other); }

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
    out = std::move(other.out);
    outPos_ = other.outPos_;
    in_ = std::move(other.in_);
    inPos_ = other.inPos_;
    writes = other.writes;
  }
  return *this;
}

void Conn::open(const std::string& path, std::uint64_t deadlineNs, Daemon& daemon) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  while (true) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      fd_ = fd;
      out.clear();
      outPos_ = 0;
      in_.clear();
      inPos_ = 0;
      return;
    }
    int err = errno;
    ::close(fd);
    if ((err != ENOENT && err != ECONNREFUSED) || nowNs() > deadlineNs ||
        !daemon.running()) {
      throw std::runtime_error("cannot connect to " + path + ": " + std::strerror(err));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::flush() {
  while (outPos_ < out.size()) {
    ssize_t n = ::send(fd_, out.data() + outPos_, out.size() - outPos_, MSG_NOSIGNAL);
    if (n > 0) {
      outPos_ += static_cast<std::size_t>(n);
      ++writes;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  out.clear();
  outPos_ = 0;
  return true;
}

bool Conn::receive() {
  if (inPos_ > 0) {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(inPos_));
    inPos_ = 0;
  }
  while (true) {
    std::size_t old = in_.size();
    in_.resize(old + 65536);
    ssize_t n = ::recv(fd_, in_.data() + old, 65536, 0);
    if (n > 0) {
      in_.resize(old + static_cast<std::size_t>(n));
      if (n < 65536) return true;
      continue;
    }
    in_.resize(old);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Conn::nextFrame(cdbp::serve::FrameView& frame) {
  std::size_t consumed = 0;
  auto status = cdbp::serve::extractFrame(in_.data() + inPos_, in_.size() - inPos_,
                                          64u << 20, frame, consumed);
  if (status == cdbp::serve::ExtractStatus::kOversized) {
    throw std::runtime_error("oversized reply frame");
  }
  if (status != cdbp::serve::ExtractStatus::kFrame) return false;
  inPos_ += consumed;
  return true;
}

std::uint64_t scrapeCounter(const std::string& text, const std::string& name) {
  std::string key = "cdbp_" + name + " ";
  for (char& c : key) {
    if (c == '.') c = '_';
  }
  std::size_t at = text.find("\n" + key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + 1 + key.size(), nullptr, 10);
}

}  // namespace bench
