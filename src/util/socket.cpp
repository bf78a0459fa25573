#include "util/socket.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace simphony::util {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& where) {
  throw IoError(where.empty() ? what
                              : what + " (" + where + "): " +
                                    std::strerror(errno));
}

int checked_socket(int domain, const std::string& where) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) fail("socket", where);
  return fd;
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

// ------------------------------------------------------- SocketAddress

SocketAddress SocketAddress::parse(const std::string& spec) {
  SocketAddress address;
  if (spec.rfind("unix:", 0) == 0) {
    address.kind = Kind::kUnix;
    address.path = spec.substr(5);
    if (address.path.empty()) {
      throw std::invalid_argument("empty unix socket path in '" + spec + "'");
    }
    return address;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    address.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
      throw std::invalid_argument("tcp address expects tcp:host:port, got '" +
                                  spec + "'");
    }
    address.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    size_t used = 0;
    int port = 0;
    try {
      port = std::stoi(port_text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != port_text.size() || port < 0 || port > 65535) {
      throw std::invalid_argument("bad tcp port '" + port_text + "' in '" +
                                  spec + "'");
    }
    address.port = port;
    return address;
  }
  throw std::invalid_argument(
      "address expects unix:/path or tcp:host:port, got '" + spec + "'");
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --------------------------------------------------------------- Socket

Socket::Socket(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

Socket::~Socket() {
  if (fd_ >= 0) ::close(fd_);
}

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), peer_(std::move(other.peer_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const SocketAddress& address) {
  const std::string label = address.to_string();
  if (address.kind == SocketAddress::Kind::kUnix) {
    const int fd = checked_socket(AF_UNIX, label);
    const sockaddr_un addr = unix_sockaddr(address.path);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      ::close(fd);
      fail("connect", label);
    }
    return Socket(fd, label);
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int gai = ::getaddrinfo(address.host.c_str(),
                                std::to_string(address.port).c_str(), &hints,
                                &result);
  if (gai != 0) {
    throw IoError("resolve (" + label + "): " + ::gai_strerror(gai));
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) fail("connect", label);
  return Socket(fd, label);
}

size_t Socket::read(void* data, size_t size) {
  ssize_t got;
  do {
    got = ::recv(fd_, data, size, 0);
  } while (got < 0 && errno == EINTR);
  if (got < 0) fail("read", peer_);
  return static_cast<size_t>(got);
}

void Socket::write(const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    ssize_t put;
    do {
      // MSG_NOSIGNAL: a peer that hung up yields EPIPE -> IoError
      // instead of a process-killing SIGPIPE.
      put = ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    } while (put < 0 && errno == EINTR);
    if (put < 0) fail("write", peer_);
    sent += static_cast<size_t>(put);
  }
}

void Socket::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

void Socket::shutdown_read() { ::shutdown(fd_, SHUT_RD); }

void Socket::discard_input(size_t max_bytes, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[4096];
  for (size_t dropped = 0; dropped < max_bytes;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{fd_, POLLIN, 0};
    // Timeout, hang-up, reset or signal: nothing left worth waiting for.
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) return;
    const ssize_t got =
        ::recv(fd_, chunk, std::min(sizeof(chunk), max_bytes - dropped), 0);
    if (got <= 0) return;
    dropped += static_cast<size_t>(got);
  }
}

// --------------------------------------------------------- ServerSocket

ServerSocket::ServerSocket(const SocketAddress& address, int backlog)
    : address_(address) {
  const std::string label = address.to_string();
  if (address.kind == SocketAddress::Kind::kUnix) {
    fd_ = checked_socket(AF_UNIX, label);
    // A stale socket file from a previous run blocks bind; replacing it
    // is the daemon convention (a *live* daemon would still hold the
    // listening fd, but two daemons on one path is an operator error the
    // filesystem cannot arbitrate anyway).
    ::unlink(address.path.c_str());
    const sockaddr_un addr = unix_sockaddr(address.path);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
      fail("bind", label);
    }
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* result = nullptr;
    const int gai = ::getaddrinfo(address.host.c_str(),
                                  std::to_string(address.port).c_str(),
                                  &hints, &result);
    if (gai != 0) {
      throw IoError("resolve (" + label + "): " + ::gai_strerror(gai));
    }
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
      fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd_ < 0) continue;
      const int yes = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
      if (::bind(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd_);
      fd_ = -1;
    }
    ::freeaddrinfo(result);
    if (fd_ < 0) fail("bind", label);
    if (address.port == 0) {
      // Report the kernel-assigned ephemeral port back to the caller.
      sockaddr_storage bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        if (bound.ss_family == AF_INET) {
          address_.port = ntohs(
              reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
          address_.port = ntohs(
              reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
        }
      }
    }
  }
  if (::listen(fd_, backlog) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail("listen", label);
  }
}

ServerSocket::~ServerSocket() {
  if (fd_ >= 0) ::close(fd_);
  if (address_.kind == SocketAddress::Kind::kUnix) {
    ::unlink(address_.path.c_str());
  }
}

std::optional<Socket> ServerSocket::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) fail("poll", address_.to_string());
  if (ready == 0) return std::nullopt;
  int client;
  do {
    client = ::accept(fd_, nullptr, nullptr);
  } while (client < 0 && errno == EINTR);
  if (client < 0) fail("accept", address_.to_string());
  return Socket(client, address_.to_string());
}

// ---------------------------------------------------------- LineChannel

bool LineChannel::read_line(std::string* line) {
  line->clear();
  const auto check_cap = [&] {
    if (line->size() > max_line_bytes_) {
      throw LineTooLongError("line exceeds " +
                             std::to_string(max_line_bytes_) + " bytes");
    }
  };
  for (;;) {
    const size_t newline = buffer_.find('\n', buffer_pos_);
    if (newline != std::string::npos) {
      line->append(buffer_, buffer_pos_, newline - buffer_pos_);
      buffer_pos_ = newline + 1;
      // Keep the buffer from growing without bound across many messages.
      if (buffer_pos_ == buffer_.size()) {
        buffer_.clear();
        buffer_pos_ = 0;
      }
      check_cap();
      return true;
    }
    line->append(buffer_, buffer_pos_, buffer_.size() - buffer_pos_);
    buffer_.clear();
    buffer_pos_ = 0;
    check_cap();
    if (eof_) return !line->empty();
    char chunk[4096];
    const size_t got = in_->read(chunk, sizeof(chunk));
    if (got == 0) {
      eof_ = true;
      return !line->empty();
    }
    buffer_.assign(chunk, got);
  }
}

void LineChannel::write_line(std::string_view line) {
  if (line.find('\n') != std::string_view::npos) {
    throw std::invalid_argument(
        "LineChannel message must not contain a newline");
  }
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  out_->write(framed.data(), framed.size());
  out_->flush();
}

}  // namespace simphony::util
