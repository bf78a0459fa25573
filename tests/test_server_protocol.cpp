// The simphonyd NDJSON protocol layer (core/server.h): per-line error
// handling (malformed and truncated request JSON keep the connection
// usable), the control ops (ping/stats/shutdown), busy backpressure,
// progress streaming, and — over a real TCP socket, when
// SIMPHONY_CLI_PATH is defined — bit-identity of served results against
// the one-shot CLI's --json output.
#include "core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(SIMPHONY_CLI_PATH) || defined(SIMPHONY_CLIENT_PATH)
#include <sys/wait.h>
#endif
#ifdef SIMPHONY_CLIENT_PATH
#include <cstdlib>
#endif

#include "core/engine.h"
#include "util/binio.h"
#include "util/json.h"
#include "util/socket.h"

namespace simphony::core {
namespace {

util::SocketAddress loopback() {
  return util::SocketAddress::parse("tcp:127.0.0.1:0");
}

/// Feeds `lines` (joined as sent — callers control the trailing newline)
/// through handle_connection over in-memory streams and parses one JSON
/// response per output line.
struct Transcript {
  std::vector<util::Json> responses;
  bool shutdown = false;
};

Transcript drive(Server& server, const std::string& raw_input) {
  util::MemoryInputStream in(raw_input);
  std::string raw_output;
  util::MemoryOutputStream out(raw_output);
  Transcript transcript;
  transcript.shutdown = server.handle_connection(in, out);
  std::istringstream lines(raw_output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    transcript.responses.push_back(util::Json::parse(line));
  }
  return transcript;
}

std::string status_of(const util::Json& response) {
  return response.at("status").as_string();
}

// ---------------------------------------------------- per-line recovery

TEST(ServerProtocol, MalformedLineAnswersErrorAndConnectionStaysUsable) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript =
      drive(server, "this is not json\n{\"op\": \"ping\"}\n");
  ASSERT_EQ(transcript.responses.size(), 2u);
  EXPECT_EQ(status_of(transcript.responses[0]), "error");
  EXPECT_EQ(status_of(transcript.responses[1]), "ok");
  EXPECT_EQ(transcript.responses[1].at("result").at("server").as_string(),
            "simphonyd");
  EXPECT_FALSE(transcript.shutdown);
}

TEST(ServerProtocol, TruncatedFinalLineStillGetsAnErrorResponse) {
  Engine engine;
  Server server(engine, loopback());
  // No trailing newline: the channel delivers the final unterminated
  // line, whose JSON is cut mid-document.
  const Transcript transcript =
      drive(server, "{\"op\": \"ping\"}\n{\"op\": \"sim");
  ASSERT_EQ(transcript.responses.size(), 2u);
  EXPECT_EQ(status_of(transcript.responses[0]), "ok");
  EXPECT_EQ(status_of(transcript.responses[1]), "error");
}

TEST(ServerProtocol, EnvelopeProblemsAreDiagnosedPerLine) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "[1, 2]\n"                                    // not an object
      "{\"id\": 7}\n"                               // missing op
      "{\"op\": \"transmogrify\", \"id\": 8}\n"     // unknown op
      "{\"op\": \"simulate\", \"id\": 9}\n"         // missing request
      "{\"op\": \"simulate\", \"id\": 10,"
      " \"request\": {\"mappnig\": \"beam\"}}\n");  // strict-parse reject
  ASSERT_EQ(transcript.responses.size(), 5u);
  for (const util::Json& response : transcript.responses) {
    EXPECT_EQ(status_of(response), "error");
  }
  EXPECT_NE(transcript.responses[0].at("error").as_string().find(
                "must be an object"),
            std::string::npos);
  EXPECT_NE(
      transcript.responses[1].at("error").as_string().find("needs an"),
      std::string::npos);
  EXPECT_NE(transcript.responses[2].at("error").as_string().find(
                "unknown op 'transmogrify'"),
            std::string::npos);
  // ids echo back on the lines that carried one.
  EXPECT_EQ(transcript.responses[2].at("id").as_number(), 8.0);
  EXPECT_EQ(transcript.responses[3].at("id").as_number(), 9.0);
  EXPECT_NE(transcript.responses[4].at("error").as_string().find(
                "unexpected key 'mappnig'"),
            std::string::npos);
  EXPECT_FALSE(transcript.shutdown);
}

TEST(ServerProtocol, BlankLinesAreIgnored) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript =
      drive(server, "\n\n{\"op\": \"ping\"}\n\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  EXPECT_EQ(status_of(transcript.responses[0]), "ok");
}

TEST(ServerProtocol, OverlongLineAnswersOnceAndClosesTheConnection) {
  Engine engine;
  Server server(engine, loopback());
  // One byte over the cap: alone with no newline, and terminated with a
  // ping behind it that is never read, because the connection closes.
  const std::string overlong(Server::kMaxRequestBytes + 1, 'x');
  for (const std::string& input :
       {overlong, overlong + "\n{\"op\": \"ping\"}\n"}) {
    const Transcript transcript = drive(server, input);
    ASSERT_EQ(transcript.responses.size(), 1u);
    EXPECT_EQ(status_of(transcript.responses[0]), "error");
    EXPECT_NE(transcript.responses[0].at("error").as_string().find(
                  "exceeds " + std::to_string(Server::kMaxRequestBytes)),
              std::string::npos);
    EXPECT_FALSE(transcript.shutdown);
  }
}

TEST(ServerProtocol, LineAtTheCapIsStillAnsweredPerLine) {
  Engine engine;
  Server server(engine, loopback());
  const std::string at_cap(Server::kMaxRequestBytes, 'x');
  const Transcript transcript =
      drive(server, at_cap + "\n{\"op\": \"ping\"}\n");
  ASSERT_EQ(transcript.responses.size(), 2u);
  EXPECT_EQ(status_of(transcript.responses[0]), "error");  // not JSON
  EXPECT_EQ(status_of(transcript.responses[1]), "ok");
}

// ------------------------------------------------------------ operations

TEST(ServerProtocol, SimulateServesTheEngineDocument) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "{\"op\": \"simulate\", \"id\": \"job-1\","
      " \"request\": {\"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      " \"num_threads\": 1}}\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  const util::Json& response = transcript.responses[0];
  EXPECT_EQ(status_of(response), "ok");
  EXPECT_EQ(response.at("id").as_string(), "job-1");
  EXPECT_FALSE(response.contains("coalesced"));

  SimulateRequest request;
  request.models.push_back(WorkloadSpec{"gemm:32x16x32", "", 1.0});
  request.num_threads = 1;
  Engine fresh;
  EXPECT_EQ(response.at("result").dump(-1),
            fresh.simulate(request).to_json().dump(-1));
}

TEST(ServerProtocol, ExploreStreamsProgressBeforeTheTerminalResponse) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "{\"op\": \"explore\", \"progress\": true, \"request\":"
      " {\"mapping\": \"greedy\", \"num_threads\": 1,"
      "  \"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      "  \"sweep\": {\"tiles\": [1, 2]}}}\n");
  ASSERT_GE(transcript.responses.size(), 2u);
  for (size_t i = 0; i + 1 < transcript.responses.size(); ++i) {
    EXPECT_EQ(status_of(transcript.responses[i]), "progress");
    EXPECT_LE(transcript.responses[i].at("completed").as_number(),
              transcript.responses[i].at("total").as_number());
  }
  const util::Json& last = transcript.responses.back();
  EXPECT_EQ(status_of(last), "ok");
  // A costed sweep on the shared cache reports the per-request delta.
  ASSERT_TRUE(last.contains("cache"));
  EXPECT_GT(last.at("cache").at("misses").as_number(), 0.0);
}

TEST(ServerProtocol, StatsReportsAdmissionAndCacheCounters) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "{\"op\": \"simulate\", \"request\":"
      " {\"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      " \"num_threads\": 1}}\n"
      "{\"op\": \"stats\"}\n");
  ASSERT_EQ(transcript.responses.size(), 2u);
  const util::Json& stats = transcript.responses[1].at("result");
  EXPECT_EQ(stats.at("accepted").as_number(), 1.0);
  EXPECT_EQ(stats.at("completed").as_number(), 1.0);
  EXPECT_EQ(stats.at("rejected").as_number(), 0.0);
  EXPECT_EQ(stats.at("pending").as_number(), 0.0);
  EXPECT_TRUE(stats.contains("cost_cache"));
}

TEST(ServerProtocol, BusyQueueAnswersRetryAfter) {
  Engine::Options options;
  options.queue_capacity = 0;  // backpressure test seam: reject all
  options.retry_after_ms = 77;
  Engine engine(options);
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "{\"op\": \"simulate\", \"request\": {\"num_threads\": 1}}\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  EXPECT_EQ(status_of(transcript.responses[0]), "busy");
  EXPECT_EQ(transcript.responses[0].at("retry_after_ms").as_number(), 77.0);
}

TEST(ServerProtocol, ExploreServesHalvingWithRungStats) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      "{\"op\": \"explore\", \"request\":"
      " {\"mapping\": \"greedy\", \"num_threads\": 1,"
      "  \"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      "  \"sweep\": {\"tiles\": [1, 2, 4], \"wavelengths\": [2, 4]},"
      "  \"strategy\": \"halving\"}}\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  const util::Json& response = transcript.responses[0];
  ASSERT_EQ(status_of(response), "ok") << response.dump(-1);
  const util::Json& result = response.at("result");
  // 6-point space, eta 3: ceil(6 / 3) = 2 full-fidelity survivors.
  EXPECT_EQ(result.at("points").as_array().size(), 2u);
  const util::Json& strategy = result.at("strategy");
  EXPECT_EQ(strategy.at("name").as_string(), "halving");
  EXPECT_EQ(strategy.at("eta").as_number(), 3.0);
  EXPECT_EQ(strategy.at("rungs").as_number(), 2.0);
  const auto& rungs = strategy.at("rung_stats").as_array();
  ASSERT_EQ(rungs.size(), 2u);
  EXPECT_EQ(rungs[0].at("fidelity").as_string(), "low");
  EXPECT_EQ(rungs[0].at("candidates").as_number(), 6.0);
  EXPECT_EQ(rungs[1].at("fidelity").as_string(), "full");
  EXPECT_EQ(rungs[1].at("candidates").as_number(), 2.0);

  // Bad strategy knobs are a per-line error, not a dead connection.
  const Transcript bad = drive(
      server,
      "{\"op\": \"explore\", \"request\":"
      " {\"sweep\": {\"tiles\": [1, 2]},"
      "  \"strategy\": \"halving\", \"eta\": 1}}\n"
      "{\"op\": \"ping\"}\n");
  ASSERT_EQ(bad.responses.size(), 2u);
  EXPECT_EQ(status_of(bad.responses[0]), "error");
  EXPECT_NE(bad.responses[0].at("error").as_string().find("--eta"),
            std::string::npos);
  EXPECT_EQ(status_of(bad.responses[1]), "ok");
}

TEST(ServerProtocol, ShutdownOpAcknowledgesAndReportsShutdown) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(server, "{\"op\": \"shutdown\"}\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  EXPECT_EQ(status_of(transcript.responses[0]), "ok");
  EXPECT_TRUE(transcript.shutdown);
}

TEST(ServerProtocol, RepeatedRequestIsServedWarm) {
  Engine engine;
  Server server(engine, loopback());
  const std::string envelope =
      "{\"op\": \"explore\", \"request\":"
      " {\"mapping\": \"greedy\", \"num_threads\": 1,"
      "  \"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      "  \"sweep\": {\"tiles\": [1, 2]}}}\n";
  const Transcript transcript = drive(server, envelope + envelope);
  ASSERT_EQ(transcript.responses.size(), 2u);
  const util::Json& cold = transcript.responses[0];
  const util::Json& warm = transcript.responses[1];
  // The document embeds its per-request "cost_cache" delta, so the warm
  // copy differs there by design; the explored points must not.
  EXPECT_EQ(warm.at("result").at("points").dump(-1),
            cold.at("result").at("points").dump(-1));
  EXPECT_EQ(warm.at("result").at("cost_cache").at("misses").as_number(),
            0.0);
  EXPECT_EQ(warm.at("cache").at("misses").as_number(), 0.0);
  EXPECT_GE(warm.at("cache").at("hit_rate").as_number(), 0.9);
}

// ------------------------------------------------- real-socket serving

TEST(ServerSocketServe, ServesOverTcpAndDrainsOnClientShutdown) {
  Engine engine;
  Server server(engine, loopback());
  std::thread serving([&] { server.serve(); });

  {
    util::Socket client = util::Socket::connect(server.address());
    util::LineChannel channel(client, client);
    channel.write_line("{\"op\": \"ping\", \"id\": 1}");
    channel.write_line(
        "{\"op\": \"simulate\", \"id\": 2, \"request\":"
        " {\"models\": [{\"spec\": \"gemm:32x16x32\"}],"
        " \"num_threads\": 1}}");
    channel.write_line("{\"op\": \"shutdown\", \"id\": 3}");
    client.shutdown_write();
    std::vector<util::Json> responses;
    std::string line;
    while (channel.read_line(&line)) {
      if (!line.empty()) responses.push_back(util::Json::parse(line));
    }
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(status_of(responses[0]), "ok");
    EXPECT_EQ(status_of(responses[1]), "ok");
    EXPECT_TRUE(responses[1].contains("result"));
    EXPECT_EQ(status_of(responses[2]), "ok");
  }

  serving.join();  // the shutdown op winds the accept loop down
  EXPECT_EQ(engine.pending(), 0u);
}

// A connected peer that sends nothing more must not keep a stopping
// server alive: request_stop() returns serve() within a bound, and the
// server closes its end of the idle connection.
TEST(ServerSocketServe, StopReleasesAnIdleConnectedPeer) {
  Engine engine;
  Server server(engine, loopback());
  std::promise<void> served;
  std::future<void> stopped = served.get_future();
  std::thread serving([&] {
    server.serve();
    served.set_value();
  });

  util::Socket client = util::Socket::connect(server.address());
  util::LineChannel channel(client, client);
  channel.write_line("{\"op\": \"ping\", \"id\": 1}");
  std::string line;
  EXPECT_TRUE(channel.read_line(&line));  // accepted and served; now idle
  EXPECT_EQ(status_of(util::Json::parse(line)), "ok");

  server.request_stop();
  const bool exited = stopped.wait_for(std::chrono::seconds(5)) ==
                      std::future_status::ready;
  if (!exited) client.shutdown_write();  // unblock serve() to end the test
  serving.join();
  EXPECT_TRUE(exited) << "serve() still running 5 s after request_stop()";
  EXPECT_FALSE(channel.read_line(&line));  // the server hung up
}

// Over a real TCP socket the over-long line's error response must reach
// the peer even when the peer is still sending the rest of the line:
// a server that closed with those bytes unread would send a reset,
// failing the peer's write or discarding the response unread.
TEST(ServerSocketServe, OverlongLineErrorSurvivesTheRestOfTheLine) {
  Engine engine;
  Server server(engine, loopback());
  std::thread serving([&] { server.serve(); });

  // Sends the cap plus `beyond` bytes with no newline, then reads every
  // reply line up to end of stream; throws util::IoError on a reset.
  const auto send_overlong_line = [&](size_t beyond) {
    util::Socket client = util::Socket::connect(server.address());
    util::LineChannel channel(client, client);
    const std::string chunk(64 << 10, 'x');
    const size_t total = Server::kMaxRequestBytes + beyond;
    for (size_t sent = 0; sent < total; sent += chunk.size()) {
      client.write(chunk.data(), std::min(chunk.size(), total - sent));
    }
    std::vector<std::string> replies;
    for (std::string line; channel.read_line(&line);) {
      replies.push_back(line);
    }
    return replies;
  };
  for (const size_t beyond : {size_t{1}, size_t{1} << 20}) {
    std::vector<std::string> replies;
    try {
      replies = send_overlong_line(beyond);
    } catch (const util::IoError& error) {
      ADD_FAILURE() << beyond << " bytes beyond the cap: " << error.what();
      continue;
    }
    EXPECT_EQ(replies.size(), 1u) << beyond << " bytes beyond the cap";
    if (replies.empty()) continue;
    const util::Json response = util::Json::parse(replies.front());
    EXPECT_EQ(status_of(response), "error");
    EXPECT_NE(response.at("error").as_string().find(
                  "exceeds " + std::to_string(Server::kMaxRequestBytes)),
              std::string::npos);
  }

  server.request_stop();
  serving.join();
}

TEST(ServerSocketServe, CoalescesConcurrentIdenticalRequests) {
  // Two connections race the same request; the engine must evaluate it
  // once and answer both — made deterministic by holding the first
  // evaluation at the hook until the twin has coalesced onto it.
  std::mutex mutex;
  std::condition_variable started_cv;
  std::condition_variable release_cv;
  bool started = false;
  bool released = false;
  Engine::Options options;
  options.num_threads = 2;
  options.evaluation_hook = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    started_cv.notify_all();
    release_cv.wait(lock, [&] { return released; });
  };
  Engine engine(options);
  Server server(engine, loopback());
  std::thread serving([&] { server.serve(); });

  const std::string envelope =
      "{\"op\": \"explore\", \"request\":"
      " {\"mapping\": \"greedy\", \"num_threads\": 1,"
      "  \"models\": [{\"spec\": \"gemm:64x32x64\"}],"
      "  \"sweep\": {\"tiles\": [1, 2], \"wavelengths\": [2, 4]}}}";
  auto ask = [&]() -> util::Json {
    util::Socket client = util::Socket::connect(server.address());
    util::LineChannel channel(client, client);
    channel.write_line(envelope);
    client.shutdown_write();
    std::string line;
    while (channel.read_line(&line)) {
      if (!line.empty()) return util::Json::parse(line);
    }
    throw std::runtime_error("no response");
  };

  util::Json first;
  std::thread racer_a([&] { first = ask(); });
  {
    // Don't send the twin until the first evaluation is in flight.
    std::unique_lock<std::mutex> lock(mutex);
    started_cv.wait(lock, [&] { return started; });
  }
  util::Json second;
  std::thread racer_b([&] { second = ask(); });
  // The twin coalesces (never reaches the hook); release the evaluation
  // once the counter proves it joined.  Bounded wait as a safety net.
  for (int i = 0; i < 5000 && engine.counters().coalesced == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  release_cv.notify_all();
  racer_a.join();
  racer_b.join();

  EXPECT_EQ(status_of(first), "ok");
  EXPECT_EQ(status_of(second), "ok");
  EXPECT_EQ(first.at("result").dump(-1), second.at("result").dump(-1));

  server.request_stop();
  serving.join();
  const Engine::Counters counters = engine.counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.coalesced, 1u);
  EXPECT_EQ(counters.completed, 1u);
}

// ------------------------------------------------- CLI byte-identity
//
// The served "result", re-indented with dump(2), must equal the one-shot
// CLI's --json stdout byte for byte.
#ifdef SIMPHONY_CLI_PATH

std::string run_cli_stdout(const std::string& args) {
  const std::string command = std::string(SIMPHONY_CLI_PATH) + " " + args +
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed");
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("CLI exited non-zero for: " + args);
  }
  return output;
}

TEST(ServerCliIdentity, ServedResultsMatchOneShotCliJson) {
  Engine engine;
  Server server(engine, loopback());
  const Transcript transcript = drive(
      server,
      // A mapped simulate and (on the still-fresh cache) a costed sweep.
      "{\"op\": \"simulate\", \"request\":"
      " {\"models\": [{\"spec\": \"gemm:64x32x64\"}],"
      " \"mapping\": \"greedy\", \"num_threads\": 1}}\n");
  ASSERT_EQ(transcript.responses.size(), 1u);
  EXPECT_EQ(
      transcript.responses[0].at("result").dump(2) + "\n",
      run_cli_stdout("--model gemm:64x32x64 --mapping greedy --json"));

  Engine fresh_engine;
  Server fresh_server(fresh_engine, loopback());
  const Transcript sweep = drive(
      fresh_server,
      "{\"op\": \"explore\", \"request\":"
      " {\"mapping\": \"greedy\", \"num_threads\": 1,"
      "  \"models\": [{\"spec\": \"gemm:32x16x32\"}],"
      "  \"sweep\": {\"tiles\": [1, 2]}}}\n");
  ASSERT_EQ(sweep.responses.size(), 1u);
  EXPECT_EQ(sweep.responses[0].at("result").dump(2) + "\n",
            run_cli_stdout("--model gemm:32x16x32 --mapping greedy"
                           " --sweep tiles=1,2 --threads 1 --json"));
}

#endif  // SIMPHONY_CLI_PATH

// ------------------------------------------------- client busy give-up
//
// The client's retry cap is its own contract: a server that stays busy
// past --max-retries must produce exit code 75 (EX_TEMPFAIL), distinct
// from evaluation errors (1), so schedulers can requeue rejections
// without masking real failures.
#ifdef SIMPHONY_CLIENT_PATH

int run_client_exit_code(const std::string& args) {
  const std::string command = std::string(SIMPHONY_CLIENT_PATH) + " " +
                              args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string connect_flag(const Server& server) {
  return "--connect tcp:127.0.0.1:" + std::to_string(server.address().port);
}

TEST(ClientRetries, BusyServerYieldsTempfailAfterMaxRetries) {
  Engine::Options options;
  options.queue_capacity = 0;  // reject every admission
  options.retry_after_ms = 1;
  Engine engine(options);
  Server server(engine, loopback());
  std::thread serving([&] { server.serve(); });

  EXPECT_EQ(run_client_exit_code(connect_flag(server) +
                                 " --op simulate --max-retries 2"),
            75);
  // The historical --retries spelling still steers the same cap.
  EXPECT_EQ(run_client_exit_code(connect_flag(server) +
                                 " --op simulate --retries 0"),
            75);

  server.request_stop();
  serving.join();
}

TEST(ClientRetries, EvaluationErrorsKeepExitCodeOne) {
  Engine engine;
  Server server(engine, loopback());
  std::thread serving([&] { server.serve(); });

  const std::string bad_request = ::testing::TempDir() + "bad_request.json";
  {
    std::FILE* f = std::fopen(bad_request.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"mappnig\": \"beam\"}", f);
    std::fclose(f);
  }
  EXPECT_EQ(run_client_exit_code(connect_flag(server) +
                                 " --op simulate --request " + bad_request),
            1);
  std::remove(bad_request.c_str());

  server.request_stop();
  serving.join();
}

#endif  // SIMPHONY_CLIENT_PATH

}  // namespace
}  // namespace simphony::core
