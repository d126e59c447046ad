// Thin RAII layer over POSIX TCP sockets: everything the replica server
// needs and nothing more (P.11 — encapsulate the messy construct once).
// All sockets are non-blocking; readiness is multiplexed with poll(2).
#ifndef FASTCONS_NET_SOCKET_HPP
#define FASTCONS_NET_SOCKET_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fastcons {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept;
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept;
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Result of a non-blocking read/write attempt.
enum class IoStatus : std::uint8_t {
  ok,           // made progress
  would_block,  // no progress now, try again on readiness
  closed,       // orderly shutdown by the peer
  error,        // connection is dead
};

/// A non-blocking TCP connection.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(Fd fd) noexcept : fd_(std::move(fd)) {}

  /// Starts a non-blocking connect to host:port (numeric IPv4 only). The
  /// connection becomes writable when established; query pending_error()
  /// on writability to learn whether the handshake actually succeeded.
  /// Throws TransportError if the attempt cannot start.
  static TcpConnection connect(const std::string& host, std::uint16_t port);

  bool valid() const noexcept { return fd_.valid(); }
  int fd() const noexcept { return fd_.get(); }

  /// Appends to the outbound buffer WITHOUT attempting a flush. Queue a
  /// batch, then flush() once, to send it in one syscall; while a
  /// non-blocking connect is still in progress the bytes sit in the outbox
  /// until writability reports the handshake outcome.
  void queue(std::span<const std::uint8_t> bytes);

  /// Flushes as much buffered output as the kernel accepts. Consumed bytes
  /// are tracked as an offset into the outbox and the prefix is compacted
  /// away only once it is both large and the majority of the buffer, so a
  /// backpressured connection costs amortised O(1) per byte instead of the
  /// O(n^2) a front-erase-per-send scheme degrades to.
  IoStatus flush();

  bool has_pending_output() const noexcept { return outbox_.size() > sent_; }
  std::size_t pending_output_bytes() const noexcept {
    return outbox_.size() - sent_;
  }

  /// The socket's pending SO_ERROR (0 = none); clears it. The poll loop
  /// calls this when a connecting socket turns writable to distinguish an
  /// established connection from an asynchronous connect failure.
  int pending_error() noexcept;

  /// Reads what is queued into `out` (appends). Stops after a read shorter
  /// than its 16 KiB chunk, which drained the socket, so one call is one
  /// recv unless 16 KiB or more arrived; EOF behind the data shows on the
  /// next call. Returns ok when it read bytes, would_block when there were
  /// none, closed on EOF.
  IoStatus read_available(std::vector<std::uint8_t>& out);

  /// Closes the socket and discards any unsent output.
  void close() noexcept {
    fd_.reset();
    outbox_.clear();
    sent_ = 0;
  }

 private:
  Fd fd_;
  std::vector<std::uint8_t> outbox_;
  std::size_t sent_ = 0;  // outbox_[0, sent_) already accepted by the kernel
};

/// A listening TCP socket.
class TcpListener {
 public:
  /// Binds to `address`:`port` (numeric IPv4; 0 = ephemeral port) and
  /// listens. "127.0.0.1" restricts the mesh to one host, "0.0.0.0" or an
  /// explicit interface address accepts peers from other hosts. Throws
  /// TransportError on an unparsable address or any socket failure.
  static TcpListener bind(const std::string& address, std::uint16_t port);

  /// Binds to 127.0.0.1:`port` (0 = ephemeral) and listens. Throws
  /// TransportError on failure.
  static TcpListener bind_loopback(std::uint16_t port);

  std::uint16_t port() const noexcept { return port_; }
  int fd() const noexcept { return fd_.get(); }
  bool valid() const noexcept { return fd_.valid(); }

  /// Accepts one pending connection, if any (non-blocking).
  std::optional<TcpConnection> accept();

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Self-pipe used to wake a poll loop from another thread.
class WakePipe {
 public:
  WakePipe();  // throws TransportError on failure

  int read_fd() const noexcept { return read_end_.get(); }

  /// Signals the poll loop (async-signal-safe, thread-safe).
  void wake() noexcept;

  /// Drains pending wake bytes; stops after a read shorter than its buffer.
  void drain() noexcept;

 private:
  Fd read_end_;
  Fd write_end_;
};

/// Sets O_NONBLOCK; throws TransportError on failure.
void set_nonblocking(int fd);

}  // namespace fastcons

#endif  // FASTCONS_NET_SOCKET_HPP
