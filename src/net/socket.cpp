#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace fastcons {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

}  // namespace

Fd::~Fd() { reset(); }

Fd::Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() noexcept {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

// --- TcpConnection ----------------------------------------------------------

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  set_nonblocking(fd.get());
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("invalid IPv4 address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) throw_errno("connect");
  }
  return TcpConnection(std::move(fd));
}

void TcpConnection::queue(std::span<const std::uint8_t> bytes) {
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
}

namespace {
// Compact only once the consumed prefix is both sizeable and at least half
// the buffer: each compaction then moves no more bytes than were consumed
// since the last one, keeping the total copy work linear in bytes sent.
constexpr std::size_t kCompactThreshold = 16 * 1024;
}  // namespace

IoStatus TcpConnection::flush() {
  if (!valid()) return IoStatus::error;
  while (sent_ < outbox_.size()) {
    const ssize_t n = ::send(fd_.get(), outbox_.data() + sent_,
                             outbox_.size() - sent_, MSG_NOSIGNAL);
    if (n > 0) {
      sent_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (sent_ >= kCompactThreshold && sent_ * 2 >= outbox_.size()) {
        outbox_.erase(outbox_.begin(),
                      outbox_.begin() + static_cast<std::ptrdiff_t>(sent_));
        sent_ = 0;
      }
      return IoStatus::would_block;
    }
    if (n < 0 && errno == EINTR) continue;
    return IoStatus::error;
  }
  outbox_.clear();
  sent_ = 0;
  return IoStatus::ok;
}

int TcpConnection::pending_error() noexcept {
  if (!valid()) return ENOTCONN;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return errno;
  }
  return err;
}

IoStatus TcpConnection::read_available(std::vector<std::uint8_t>& out) {
  if (!valid()) return IoStatus::error;
  std::uint8_t chunk[16384];
  bool read_any = false;
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      out.insert(out.end(), chunk, chunk + n);
      read_any = true;
      // A short read took everything queued. Whatever arrives next (more
      // bytes or EOF) is reported by the next level-triggered poll, so
      // probing again here would only cost a recv that says EAGAIN.
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return IoStatus::ok;
      continue;
    }
    if (n == 0) return IoStatus::closed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return read_any ? IoStatus::ok : IoStatus::would_block;
    }
    if (errno == EINTR) continue;
    return IoStatus::error;
  }
}

// --- TcpListener ------------------------------------------------------------

TcpListener TcpListener::bind(const std::string& address, std::uint16_t port) {
  TcpListener listener;
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("invalid IPv4 bind address: " + address);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), 64) < 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  set_nonblocking(fd.get());
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

TcpListener TcpListener::bind_loopback(std::uint16_t port) {
  return bind("127.0.0.1", port);
}

std::optional<TcpConnection> TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return std::nullopt;
    }
    return std::nullopt;  // transient accept errors are non-fatal
  }
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(Fd(fd));
}

// --- WakePipe ---------------------------------------------------------------

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe");
  read_end_.reset(fds[0]);
  write_end_.reset(fds[1]);
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
}

void WakePipe::wake() noexcept {
  const std::uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(write_end_.get(), &byte, 1);
}

void WakePipe::drain() noexcept {
  std::uint8_t buf[256];
  // A short read emptied the pipe; only a full buffer can leave more.
  while (::read(read_end_.get(), buf, sizeof(buf)) ==
         static_cast<ssize_t>(sizeof(buf))) {
  }
}

}  // namespace fastcons
