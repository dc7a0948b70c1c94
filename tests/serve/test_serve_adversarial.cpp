// Adversarial corpus against a live in-process HttpServer: every request
// in here is hostile — truncated, oversized, depth-bombed, misrouted,
// stalled or replayed — and the contract under test is uniform: the
// server answers each with a well-formed JSON error (or silently closes
// on an empty connection) and keeps serving healthy traffic afterwards.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace wsnex::serve {
namespace {

namespace fs = std::filesystem;

class AdversarialTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_adv_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  SchedulerOptions scheduler_options(std::size_t max_queued = 4) const {
    SchedulerOptions o;
    o.data_dir = root_.string();
    o.slots = 1;
    o.max_queued_jobs = max_queued;
    return o;
  }

  static ServerOptions server_options() {
    ServerOptions o;
    o.limits.max_header_bytes = 2048;
    o.limits.max_body_bytes = 4096;
    o.limits.io_timeout_ms = 500;  // stalled peers must fail fast
    return o;
  }

  /// Writes raw bytes on a fresh connection and returns everything the
  /// server sends back (empty = silent close). `finish_request` half-
  /// closes after writing; a stalling client leaves the stream open.
  static std::string raw_exchange(std::uint16_t port, const std::string& raw,
                                  bool finish_request = true) {
    util::TcpStream stream = util::TcpStream::connect_loopback(port);
    stream.set_timeout_ms(5000);
    if (!raw.empty()) {
      EXPECT_EQ(stream.write_all(raw), util::TcpStream::IoStatus::kOk);
    }
    if (finish_request) stream.shutdown_write();
    std::string in;
    while (stream.read_some(in) == util::TcpStream::IoStatus::kOk) {
    }
    return in;
  }

  /// The status code of a raw response, or 0 on a silent close.
  static int raw_status(const std::string& response) {
    if (response.size() < 12 ||
        response.compare(0, 9, "HTTP/1.1 ") != 0) {
      return 0;
    }
    return std::stoi(response.substr(9, 3));
  }

  /// Every error body must parse as {"error":{"code":N,"message":...}}.
  static void expect_error_body(const std::string& response, int status) {
    SCOPED_TRACE(response);
    ASSERT_EQ(raw_status(response), status);
    const std::size_t head_end = response.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    const util::Json body = util::Json::parse(response.substr(head_end + 4));
    const util::Json& error = body.at("error");
    EXPECT_EQ(error.at("code").as_int64(), status);
    EXPECT_FALSE(error.at("message").as_string().empty());
  }
};

TEST_F(AdversarialTest, HostileFramingGetsWellFormedErrors) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, server_options());
  server.start();
  const std::uint16_t port = server.port();

  struct Case {
    const char* raw;
    int status;
  };
  const std::vector<Case> corpus{
      {"GARBAGE\r\n\r\n", 400},                              // no request line
      {"GET /healthz HTTP/2.0\r\n\r\n", 501},                // bad version
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"GET / HTTP/1.1\r\nHost : smuggle\r\n\r\n", 400},     // bad header
      {"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400},
      {"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999\r\n\r\n", 413},
      {"GET /healthz?probe=1 HTTP/1.1\r\n\r\n", 400},        // query string
      {"GET /v1/jobs/../../etc HTTP/1.1\r\n\r\n", 400},      // dot segments
  };
  for (const Case& c : corpus) {
    expect_error_body(raw_exchange(port, c.raw), c.status);
  }

  // Oversized head: pad past max_header_bytes.
  std::string fat = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  fat += std::string(8192, 'a');
  fat += "\r\n\r\n";
  expect_error_body(raw_exchange(port, fat), 431);

  // A peer that connects and says nothing gets a silent close, not a 4xx.
  EXPECT_EQ(raw_exchange(port, ""), "");

  // Slow client: half a request line, then stall. The server times the
  // read out (408) rather than parking a handler thread forever.
  expect_error_body(
      raw_exchange(port, "POST /v1/jo", /*finish_request=*/false), 408);

  // After all of the abuse the server still serves healthy traffic.
  const Client client(port);
  EXPECT_EQ(client.health().at("status").as_string(), "ok");
}

TEST_F(AdversarialTest, HostileBodiesAndRoutesGetJsonErrors) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, server_options());
  server.start();
  const std::uint16_t port = server.port();
  const Client client(port);

  const auto expect_api_error = [&](const char* method, const char* target,
                                    const std::string& body, int status) {
    SCOPED_TRACE(std::string(method) + " " + target);
    const util::HttpResponse response =
        util::http_exchange(port, method, target, body, 5000);
    EXPECT_EQ(response.status, status);
    const util::Json parsed = util::Json::parse(response.body);
    EXPECT_EQ(parsed.at("error").at("code").as_int64(), status);
  };

  // Unknown routes and wrong methods.
  expect_api_error("GET", "/", "", 404);
  expect_api_error("GET", "/v2/jobs", "", 404);
  expect_api_error("GET", "/v1/jobs/ghost/bogus", "", 404);
  expect_api_error("POST", "/healthz", "", 405);
  expect_api_error("DELETE", "/v1/jobs", "", 405);
  expect_api_error("GET", "/v1/jobs/ghost/cancel", "", 405);
  expect_api_error("POST", "/v1/jobs/ghost/results", "", 405);

  // Unknown job ids.
  expect_api_error("GET", "/v1/jobs/ghost", "", 404);
  expect_api_error("GET", "/v1/jobs/ghost/results", "", 404);
  expect_api_error("POST", "/v1/jobs/ghost/cancel", "", 404);

  // Bodies that fail at the JSON layer.
  expect_api_error("POST", "/v1/jobs", "not json", 400);
  expect_api_error("POST", "/v1/jobs", "{\"scenarios\": [", 400);
  // Depth bomb: past util::Json's 128-level nesting cap. Must be a clean
  // 400, not a stack overflow.
  std::string bomb = "{\"scenarios\": ";
  for (int i = 0; i < 200; ++i) bomb += '[';
  for (int i = 0; i < 200; ++i) bomb += ']';
  bomb += '}';
  expect_api_error("POST", "/v1/jobs", bomb, 400);

  // Bodies that parse but fail admission.
  expect_api_error("POST", "/v1/jobs", "{\"scenarios\": []}", 400);
  expect_api_error("POST", "/v1/jobs",
                   "{\"scenarios\": [\"hospital_ward_2\"], \"surprise\": 1}",
                   400);
  expect_api_error("POST", "/v1/jobs",
                   "{\"id\": \"bad/id\", \"scenarios\": [\"hospital_ward_2\"]}",
                   400);

  // Everything above was rejected before touching the scheduler.
  EXPECT_EQ(scheduler.total_jobs(), 0u);
  EXPECT_EQ(client.health().at("active_jobs").as_int64(), 0);
}

TEST_F(AdversarialTest, QueuePressureDuplicatesAndDoubleCancel) {
  // Workers never started: submitted jobs stay queued, making queue-full
  // and cancel windows deterministic.
  JobScheduler scheduler(scheduler_options(/*max_queued=*/2));
  HttpServer server(scheduler, server_options());
  server.start();
  const Client client(server.port());

  util::Json job = util::Json::object();
  job.set("id", "pinned");
  job.set("kind", "validation");
  util::Json scenarios = util::Json::array();
  scenarios.push_back(util::Json("hospital_ward_2"));
  job.set("scenarios", std::move(scenarios));
  job.set("replicates", std::size_t{1});
  job.set("duration_s", 1.0);

  EXPECT_EQ(client.submit(job).at("state").as_string(), "queued");

  // Duplicate id -> 409.
  try {
    client.submit(job);
    FAIL() << "duplicate submit must throw";
  } catch (const ServeApiError& e) {
    EXPECT_EQ(e.status(), 409);
  }

  util::Json second = job;
  second.set("id", "pinned-2");
  EXPECT_EQ(client.submit(second).at("state").as_string(), "queued");

  // Queue full -> 429.
  util::Json third = job;
  third.set("id", "pinned-3");
  try {
    client.submit(third);
    FAIL() << "over-quota submit must throw";
  } catch (const ServeApiError& e) {
    EXPECT_EQ(e.status(), 429);
  }

  // Double-cancel is idempotent: both calls succeed with the same state.
  EXPECT_EQ(client.cancel("pinned").at("state").as_string(), "cancelled");
  EXPECT_EQ(client.cancel("pinned").at("state").as_string(), "cancelled");
  // The freed slot admits new work again.
  EXPECT_EQ(client.submit(third).at("state").as_string(), "queued");
  EXPECT_EQ(client.list().at("jobs").as_array().size(), 3u);
}

TEST_F(AdversarialTest, ConcurrentHostileClientsCannotWedgeTheServer) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, server_options());
  server.start();
  const std::uint16_t port = server.port();

  // A pack of misbehaving clients in parallel: stallers, garbage
  // senders, instant closers. None may wedge the handler pool.
  std::vector<std::thread> pack;
  for (int i = 0; i < 8; ++i) {
    pack.emplace_back([port, i] {
      switch (i % 3) {
        case 0:
          raw_exchange(port, "POST /v1", /*finish_request=*/false);
          break;
        case 1:
          raw_exchange(port, "\x01\x02\x03\r\n\r\n");
          break;
        default:
          raw_exchange(port, "");
          break;
      }
    });
  }
  for (std::thread& t : pack) t.join();

  // The server must still answer within the client timeout.
  const Client client(port, /*timeout_ms=*/10000);
  EXPECT_EQ(client.health().at("status").as_string(), "ok");
}

TEST_F(AdversarialTest, RetryingClientRidesOutALateStartingServer) {
  // Reserve an ephemeral port, then release it: until the real server
  // binds it again, every connect is refused — the transport failure the
  // retry policy exists for.
  std::uint16_t port = 0;
  {
    const util::TcpListener probe = util::TcpListener::listen_loopback(0);
    port = probe.port();
  }
  JobScheduler scheduler(scheduler_options());
  std::atomic<bool> stop{false};
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ServerOptions o = server_options();
    o.port = port;
    HttpServer server(scheduler, o);
    server.start();
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.stop();
  });

  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_delay_ms = 50;
  retry.max_delay_ms = 200;
  const Client client(port, /*timeout_ms=*/5000, retry);
  util::Json health;
  try {
    health = client.health();
  } catch (...) {
    stop = true;
    late.join();
    throw;
  }
  EXPECT_EQ(health.at("status").as_string(), "ok");
  stop = true;
  late.join();
}

// The events endpoint is the one route that accepts a query string — and
// only `since`/`wait` with digit values. Everything else about it must obey
// the same strictness as the rest of the API: NDJSON pages with a meta
// line, strictly monotone sequences, cursor resumption without replay, and
// well-formed errors for unknown jobs, bad queries and wrong methods.
TEST_F(AdversarialTest, EventStreamPagesResumeOverRealSockets) {
  JobScheduler scheduler(scheduler_options());
  scheduler.start();
  ServerOptions options = server_options();
  options.limits.io_timeout_ms = 5000;  // long-poll needs headroom
  HttpServer server(scheduler, options);
  server.start();
  const std::uint16_t port = server.port();
  const Client client(port, /*timeout_ms=*/10000);

  util::Json job = util::Json::object();
  job.set("id", "streamed");
  job.set("kind", "campaign");
  job.set("quick", true);
  util::Json scenarios = util::Json::array();
  scenarios.push_back(util::Json("hospital_ward_2"));
  job.set("scenarios", std::move(scenarios));
  ASSERT_EQ(client.submit(job).at("state").as_string(), "queued");
  client.wait("streamed", /*poll_ms=*/50, /*timeout_ms=*/120000);

  // Full page from seq 0: meta + events, strictly monotone, terminal tail.
  const util::Json page = client.events("streamed");
  EXPECT_EQ(page.at("since").as_int64(), 0);
  EXPECT_EQ(page.at("dropped").as_int64(), 0);
  const auto& events = page.at("events").as_array();
  ASSERT_GT(events.size(), 3u);
  EXPECT_EQ(page.at("next").as_int64(), events.back().at("seq").as_int64());
  std::int64_t last_seq = 0;
  for (const util::Json& event : events) {
    const std::int64_t seq = event.at("seq").as_int64();
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  EXPECT_EQ(events.back().at("kind").as_string(), "job_finished");

  // Cursor resumption: a mid-stream cursor yields exactly the suffix, and
  // the final cursor yields an empty page with an unchanged `next`.
  const std::int64_t mid = events[1].at("seq").as_int64();
  const util::Json suffix =
      client.events("streamed", static_cast<std::uint64_t>(mid));
  EXPECT_EQ(suffix.at("events").as_array().size(), events.size() - 2);
  EXPECT_EQ(suffix.at("events").as_array().front().at("seq").as_int64(),
            events[2].at("seq").as_int64());
  const util::Json drained = client.events(
      "streamed", static_cast<std::uint64_t>(page.at("next").as_int64()));
  EXPECT_EQ(drained.at("events").as_array().size(), 0u);
  EXPECT_EQ(drained.at("next").as_int64(), page.at("next").as_int64());

  // Raw wire shape: NDJSON content type, first line is the meta object.
  const std::string raw = raw_exchange(
      port, "GET /v1/jobs/streamed/events?since=0&wait=0 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(raw_status(raw), 200);
  EXPECT_NE(raw.find("application/x-ndjson"), std::string::npos);
  const std::size_t body_at = raw.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = raw.substr(body_at + 4);
  const util::Json meta =
      util::Json::parse(body.substr(0, body.find('\n')));
  EXPECT_EQ(meta.at("since").as_int64(), 0);

  // Error surface: unknown job, junk queries, wrong method — all strict.
  try {
    client.events("phantom");
    FAIL() << "events on an unknown job must 404";
  } catch (const ServeApiError& e) {
    EXPECT_EQ(e.status(), 404);
  }
  expect_error_body(
      raw_exchange(port,
                   "GET /v1/jobs/streamed/events?since=abc HTTP/1.1\r\n\r\n"),
      400);
  expect_error_body(
      raw_exchange(port,
                   "GET /v1/jobs/streamed/events?evil=1 HTTP/1.1\r\n\r\n"),
      400);
  expect_error_body(
      raw_exchange(port,
                   "POST /v1/jobs/streamed/events?since=0 HTTP/1.1\r\n\r\n"),
      405);
  // Queries on every other route stay rejected.
  expect_error_body(
      raw_exchange(port, "GET /v1/jobs/streamed?since=0 HTTP/1.1\r\n\r\n"),
      400);

  // Long-poll: a waiter on the end-of-stream cursor of a terminal job
  // times out empty (no new events will ever arrive) instead of hanging.
  const auto before = std::chrono::steady_clock::now();
  const util::Json idle = client.events(
      "streamed", static_cast<std::uint64_t>(page.at("next").as_int64()),
      /*wait_ms=*/300);
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(idle.at("events").as_array().size(), 0u);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            250);
  server.stop();
  scheduler.drain();
}

TEST_F(AdversarialTest, ExhaustedRetriesSurfaceTheTransportError) {
  // Nothing ever listens here: the client must re-throw SocketError (the
  // transport truth) after its attempts, not convert it into an API error
  // or hang.
  std::uint16_t port = 0;
  {
    const util::TcpListener probe = util::TcpListener::listen_loopback(0);
    port = probe.port();
  }
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay_ms = 10;
  retry.max_delay_ms = 20;
  const Client client(port, /*timeout_ms=*/500, retry);
  EXPECT_THROW(client.health(), util::SocketError);
}

}  // namespace
}  // namespace wsnex::serve
