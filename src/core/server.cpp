#include "core/server.h"

#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace simphony::core {
namespace {

/// Per-connection response writer: one mutex serializes the connection's
/// response lines against progress events fired from engine pool
/// threads, so protocol lines never interleave mid-message.
class ResponseWriter {
 public:
  explicit ResponseWriter(util::LineChannel& channel) : channel_(&channel) {}

  void write(const util::Json& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    channel_->write_line(message.dump(-1));
  }

 private:
  util::LineChannel* channel_;
  std::mutex mutex_;
};

util::Json make_response(const util::Json* id, const std::string& status) {
  util::Json response;
  response["status"] = status;
  if (id != nullptr) response["id"] = *id;
  return response;
}

util::Json error_response(const util::Json* id, const std::string& message) {
  util::Json response = make_response(id, "error");
  response["error"] = message;
  return response;
}

}  // namespace

Server::Server(Engine& engine, const util::SocketAddress& address)
    : Server(engine, address, Options{}) {}

Server::Server(Engine& engine, const util::SocketAddress& address,
               Options options)
    : engine_(&engine),
      options_(std::move(options)),
      listener_(address) {}

Server::~Server() = default;

bool Server::handle_connection(util::InputStream& in,
                               util::OutputStream& out) {
  util::LineChannel channel(in, out, kMaxRequestBytes);
  ResponseWriter writer(channel);
  bool shutdown_requested = false;

  std::string line;
  for (;;) {
    try {
      if (!channel.read_line(&line)) break;
    } catch (const util::LineTooLongError& error) {
      // The rest of the line is unread, so the next "line" would start
      // mid-message: answer once and hang up.
      writer.write(error_response(nullptr, std::string("request ") +
                                               error.what() +
                                               "; closing the connection"));
      break;
    }
    if (line.empty()) continue;  // blank keep-alive lines are ignored

    // Parse the envelope.  Everything that can go wrong with one line is
    // answered on that line's behalf; the connection stays usable.
    util::Json envelope;
    try {
      envelope = util::Json::parse(line);
    } catch (const std::exception& error) {
      writer.write(error_response(nullptr, error.what()));
      continue;
    }

    const util::Json* id = nullptr;
    std::string op;
    try {
      if (!envelope.is_object()) {
        throw std::invalid_argument("request envelope must be an object");
      }
      if (envelope.contains("id")) id = &envelope.at("id");
      if (!envelope.contains("op")) {
        throw std::invalid_argument("request envelope needs an \"op\"");
      }
      op = envelope.at("op").as_string();
    } catch (const std::exception& error) {
      writer.write(error_response(id, error.what()));
      continue;
    }

    if (op == "ping") {
      util::Json response = make_response(id, "ok");
      util::Json result;
      result["server"] = std::string("simphonyd");
      result["protocol"] = 1;
      response["result"] = std::move(result);
      writer.write(response);
      continue;
    }
    if (op == "stats") {
      const Engine::Counters counters = engine_->counters();
      const CostMatrixCache::Stats cache = engine_->cache_stats();
      util::Json response = make_response(id, "ok");
      util::Json result;
      result["accepted"] = counters.accepted;
      result["coalesced"] = counters.coalesced;
      result["rejected"] = counters.rejected;
      result["completed"] = counters.completed;
      result["pending"] = engine_->pending();
      util::Json cache_json;
      cache_json["hits"] = cache.hits;
      cache_json["misses"] = cache.misses;
      cache_json["hit_rate"] = cache.hit_rate();
      result["cost_cache"] = std::move(cache_json);
      response["result"] = std::move(result);
      writer.write(response);
      continue;
    }
    if (op == "shutdown") {
      shutdown_requested = true;
      request_stop();
      if (options_.log) options_.log("shutdown requested by client");
      writer.write(make_response(id, "ok"));
      continue;
    }
    if (op != "simulate" && op != "explore") {
      writer.write(error_response(
          id, "unknown op '" + op +
                  "' (expected simulate|explore|ping|stats|shutdown)"));
      continue;
    }

    // simulate / explore: parse the typed request, submit to the shared
    // engine, stream progress when asked, answer with the terminal
    // status.
    const bool want_progress =
        envelope.contains("progress") && envelope.at("progress").as_bool();
    std::function<void(const Progress&)> on_progress;
    if (want_progress) {
      // `id` points into `envelope`, which outlives the evaluation (we
      // block on the outcome below), so capturing it is safe.
      on_progress = [&writer, id](const Progress& progress) {
        util::Json event = make_response(id, "progress");
        event["completed"] = progress.completed;
        event["total"] = progress.total;
        writer.write(event);
      };
    }

    Engine::Admission admission;
    try {
      if (!envelope.contains("request")) {
        throw std::invalid_argument("op '" + op +
                                    "' needs a \"request\" object");
      }
      const util::Json& request_json = envelope.at("request");
      if (op == "simulate") {
        admission = engine_->submit(
            SimulateRequest::from_json(request_json), on_progress);
      } else {
        admission = engine_->submit(ExploreRequest::from_json(request_json),
                                    on_progress);
      }
    } catch (const std::exception& error) {
      writer.write(error_response(id, error.what()));
      continue;
    }

    if (!admission.accepted) {
      util::Json response = make_response(id, "busy");
      response["retry_after_ms"] = admission.retry_after_ms;
      writer.write(response);
      continue;
    }

    const Engine::Outcome outcome = admission.outcome.get();
    if (!outcome.ok) {
      writer.write(error_response(id, outcome.error));
      continue;
    }
    util::Json response = make_response(id, "ok");
    response["result"] = outcome.document;
    if (outcome.cache_attached) {
      util::Json cache_json;
      cache_json["hits"] = outcome.cache.hits;
      cache_json["misses"] = outcome.cache.misses;
      cache_json["hit_rate"] = outcome.cache.hit_rate();
      response["cache"] = std::move(cache_json);
    }
    if (admission.coalesced) response["coalesced"] = true;
    writer.write(response);
  }
  return shutdown_requested;
}

void Server::serve() {
  struct Connection {
    std::thread thread;
    std::shared_ptr<util::Socket> socket;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;

  auto reap = [&](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->done->load()) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!stop_.load() &&
         !(options_.should_stop && options_.should_stop())) {
    std::optional<util::Socket> accepted;
    try {
      accepted = listener_.accept(options_.poll_interval_ms);
    } catch (const std::exception& error) {
      if (options_.log) options_.log(error.what());
      break;
    }
    reap(/*all=*/false);
    if (!accepted) continue;

    auto socket = std::make_shared<util::Socket>(std::move(*accepted));
    auto done = std::make_shared<std::atomic<bool>>(false);
    Connection connection;
    connection.socket = socket;
    connection.done = done;
    connection.thread = std::thread([this, socket, done] {
      try {
        handle_connection(*socket, *socket);
        // Let the peer hang up first, so the socket closes with nothing
        // unread (the rest of an over-long line) and the peer sees every
        // response, then end of stream, rather than a reset.
        socket->shutdown_write();
        socket->discard_input(kMaxRequestBytes, kLingerMs);
      } catch (const std::exception& error) {
        // A transport failure (peer reset mid-line) ends this
        // connection only.
        if (options_.log) options_.log(error.what());
      }
      done->store(true);
    });
    connections.push_back(std::move(connection));
  }

  // Wind-down: stop reading from the connections already accepted — an
  // idle peer would otherwise block its thread, and this join, until it
  // hangs up — while every request already read is still answered.  Then
  // drain the engine so every admitted evaluation lands (and the cache
  // holds its results) before the caller persists state.
  for (Connection& connection : connections) {
    connection.socket->shutdown_read();
  }
  reap(/*all=*/true);
  engine_->drain();
}

}  // namespace simphony::core
