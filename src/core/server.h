// The simphonyd protocol layer: newline-delimited JSON (NDJSON) request/
// response framing over any stream pair, served by one shared
// core::Engine.
//
// One protocol message per line, compact JSON (never contains a raw
// newline).  Requests are envelopes:
//
//   {"op": "simulate"|"explore"|"ping"|"stats"|"shutdown",
//    "id": <any JSON value, echoed back verbatim>,      (optional)
//    "request": {...},         (SimulateRequest/ExploreRequest JSON)
//    "progress": true}         (optional: stream progress events)
//
// Responses carry "status":
//
//   {"status": "ok", "id": ..., "result": {...}, "cache": {...}?}
//   {"status": "error", "id": ..., "error": "diagnostic"}
//   {"status": "busy", "id": ..., "retry_after_ms": N}
//   {"status": "progress", "id": ..., "completed": N, "total": N}
//
// "result" is byte-for-byte the document the one-shot CLI prints with
// --json (re-indent the compact form with util::Json::dump(2) to
// compare).  "cache" is the per-request cost-cache delta when a cache
// was attached.  Progress events (when requested) interleave before the
// final response on the same connection; the final line for a given
// request is always a terminal status (ok|error|busy).
//
// Error handling is per-line: a malformed line yields one "error"
// response and the connection stays usable for the next line.  The one
// exception is a line longer than Server::kMaxRequestBytes: it gets one
// "error" response and the connection is closed, because framing cannot
// resync inside an unterminated line.  A
// "shutdown" request asks the whole server to stop accepting and drain
// (the response is sent before the listener winds down).
//
// The transport (util/socket.h) is separated from the protocol: tests
// drive handle_connection() directly over in-memory streams.
#pragma once

#include <atomic>
#include <functional>
#include <string>

#include "core/engine.h"
#include "util/binio.h"
#include "util/socket.h"

namespace simphony::core {

/// NDJSON server over one Engine.  Thread-safe per instance: serve()
/// runs one accept loop and spawns a thread per connection, all sharing
/// the Engine (whose admission queue provides the backpressure).
class Server {
 public:
  /// Longest request line a connection may send (newline excluded).
  /// Without a cap one client could grow the daemon's memory without
  /// bound by never sending a newline.
  static constexpr size_t kMaxRequestBytes = size_t{4} << 20;  // 4 MiB

  /// After a connection ends, how long serve() keeps reading (and
  /// dropping, at most kMaxRequestBytes) until the peer hangs up.
  static constexpr int kLingerMs = 2000;

  struct Options {
    /// How long each accept() poll waits before re-checking stop
    /// conditions — the latency bound on graceful shutdown.
    int poll_interval_ms = 200;
    /// External stop condition checked between accept polls (e.g.
    /// ScopedSignalGuard::interrupted); serve() returns when it holds.
    std::function<bool()> should_stop;
    /// Diagnostic sink (connection errors, shutdown requests); defaults
    /// to dropping the messages.
    std::function<void(const std::string&)> log;
  };

  /// Binds and listens immediately (throws util::IoError on failure).
  /// The resolved address — e.g. the kernel-assigned port for tcp port
  /// 0 — is available via address() right after construction.
  Server(Engine& engine, const util::SocketAddress& address);
  Server(Engine& engine, const util::SocketAddress& address,
         Options options);
  /// Joins every connection thread (serve() must have returned).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const util::SocketAddress& address() const {
    return listener_.address();
  }

  /// Accept loop: blocks until request_stop(), a client "shutdown", or
  /// Options::should_stop.  Then stops reading from every connection
  /// (requests already read are still answered; idle peers cannot hold
  /// the server open), joins all connection threads, and drains the
  /// engine before returning — after serve(), no evaluation is in
  /// flight.
  void serve();

  /// Asks serve() to wind down (callable from any thread / a response
  /// to an external event).
  void request_stop() { stop_.store(true); }

  /// The protocol core, transport-free: reads envelope lines from `in`
  /// until end-of-stream (or an over-long line), writing one (or more,
  /// with progress) response lines per request to `out`.  Returns true
  /// when a "shutdown"
  /// request was processed.  Tests call this directly over memory
  /// streams; serve() calls it per accepted socket.
  bool handle_connection(util::InputStream& in, util::OutputStream& out);

 private:
  Engine* engine_;
  Options options_;
  util::ServerSocket listener_;
  std::atomic<bool> stop_{false};
};

}  // namespace simphony::core
