// Socket plumbing for simphonyd and its clients, layered on the
// InputStream/OutputStream seam from util/binio.h so the protocol layer
// (core/server.h) is transport-agnostic and testable against in-memory
// streams.
//
// Two transports, one address syntax:
//
//   unix:/path/to/socket     Unix-domain stream socket
//   tcp:host:port            TCP (host resolved by getaddrinfo;
//                            port 0 binds an ephemeral port — the
//                            resolved port is readable after bind)
//
// All calls retry EINTR internally; real failures throw util::IoError
// naming the address.  Sockets are blocking — the server's cooperative
// shutdown comes from the poll()-based accept timeout, not from
// non-blocking I/O.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "util/binio.h"

namespace simphony::util {

/// Parsed endpoint address ("unix:/path" | "tcp:host:port").
struct SocketAddress {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;         // kUnix: filesystem path
  std::string host;         // kTcp
  int port = 0;             // kTcp

  /// Parses the address syntax above; throws std::invalid_argument on an
  /// unknown scheme, empty path/host, or a port outside [0, 65535].
  [[nodiscard]] static SocketAddress parse(const std::string& spec);

  /// Round-trips back to the "unix:..." / "tcp:..." spelling.
  [[nodiscard]] std::string to_string() const;
};

/// A connected stream socket: an InputStream (read() returns 0 at peer
/// close) and an OutputStream (write() is all-or-nothing) over one fd.
/// Move-only; the destructor closes the fd.
class Socket final : public InputStream, public OutputStream {
 public:
  /// Adopts an already-connected fd (ServerSocket::accept).
  explicit Socket(int fd, std::string peer = "");
  ~Socket() override;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to a listening endpoint; throws IoError when the endpoint
  /// does not resolve, refuses, or times out.
  [[nodiscard]] static Socket connect(const SocketAddress& address);

  [[nodiscard]] size_t read(void* data, size_t size) override;
  using OutputStream::write;
  void write(const void* data, size_t size) override;

  /// Half-close: signals end-of-requests to the peer while the read side
  /// keeps draining responses.
  void shutdown_write();

  /// Half-close of the read side: a read() blocked on this socket, and
  /// every later one, returns 0 as at peer close; writes keep working.
  void shutdown_read();

  /// Reads and drops what the peer still sends until it hangs up,
  /// `max_bytes` have been dropped, or `timeout_ms` has passed, whichever
  /// comes first.  A server calls it after shutdown_write() so it closes
  /// with nothing unread: closing a TCP socket with unread bytes sends a
  /// reset, which can destroy a response the peer has not read yet.
  /// Best effort: a transport failure ends it quietly.
  void discard_input(size_t max_bytes, int timeout_ms);

  [[nodiscard]] int fd() const { return fd_; }
  /// Human-readable peer label for diagnostics ("unix:/tmp/x.sock",
  /// "tcp:127.0.0.1:4000"); may be empty for adopted fds.
  [[nodiscard]] const std::string& peer() const { return peer_; }

 private:
  int fd_ = -1;
  std::string peer_;
};

/// A bound, listening endpoint.  For unix addresses a stale socket file
/// at the path is unlinked before bind (the daemon-restart convention)
/// and the file is unlinked again on destruction; for tcp, port 0 is
/// resolved to the kernel-assigned port, readable via address().
class ServerSocket {
 public:
  explicit ServerSocket(const SocketAddress& address, int backlog = 16);
  ~ServerSocket();
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Waits up to timeout_ms for a connection (poll); nullopt on timeout
  /// — the server's shutdown-poll point.  Throws IoError on failure.
  [[nodiscard]] std::optional<Socket> accept(int timeout_ms);

  /// The bound address, with the resolved port for tcp port 0.
  [[nodiscard]] const SocketAddress& address() const { return address_; }

 private:
  int fd_ = -1;
  SocketAddress address_;
};

/// Thrown by LineChannel::read_line when a line outgrows the channel's
/// cap.  The rest of that line was never read, so framing cannot resync:
/// the reader's only safe move is to close the channel.
class LineTooLongError : public IoError {
 public:
  using IoError::IoError;
};

/// Newline-delimited message framing over any stream pair (the NDJSON
/// protocol layer; docs/server.md).  Reading is buffered; writing
/// appends '\n' and flushes, so one write_line() is one complete,
/// immediately-visible protocol message.
class LineChannel {
 public:
  /// Streams are not owned and must outlive the channel.  Lines longer
  /// than `max_line_bytes` (newline excluded) are refused by read_line.
  LineChannel(InputStream& in, OutputStream& out,
              size_t max_line_bytes = static_cast<size_t>(-1))
      : in_(&in), out_(&out), max_line_bytes_(max_line_bytes) {}

  /// Reads up to the next '\n' (stripped).  False at end of stream with
  /// no buffered bytes; a final unterminated line is delivered as-is
  /// (true) and the next call reports end.  Throws LineTooLongError once
  /// a line exceeds the cap (holding at most one read chunk beyond it),
  /// and IoError on transport failure.
  [[nodiscard]] bool read_line(std::string* line);

  /// Writes `line` + '\n' and flushes.  `line` must not itself contain
  /// '\n' (throws std::invalid_argument — a framing violation would
  /// desynchronize the peer).
  void write_line(std::string_view line);

 private:
  InputStream* in_;
  OutputStream* out_;
  size_t max_line_bytes_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  bool eof_ = false;
};

}  // namespace simphony::util
