// Tests for the background monitor (obs/monitor.hpp) and the embedded
// HTTP endpoint (obs/http_server.hpp).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness/runner.hpp"
#include "obs/export.hpp"
#include "obs/flight/flight.hpp"
#include "obs/http_server.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"

namespace {

using namespace cats;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Monitor: sampling, rates, schema, ring bound, CSV dump.
// ---------------------------------------------------------------------------

obs::Monitor::StatsSource counting_source(std::atomic<std::uint64_t>& ops) {
  return [&ops] {
    obs::Snapshot snap;
    snap.add_counter("ops", ops.load());
    snap.add_gauge("level", 2.5);
    return snap;
  };
}

TEST(Monitor, SamplesCountersAndComputesRates) {
  std::atomic<std::uint64_t> ops{0};
  obs::Monitor::Config config;
  config.interval = 20ms;
  obs::Monitor monitor(config, counting_source(ops));

  monitor.start();
  EXPECT_TRUE(monitor.running());
  for (int i = 0; i < 5; ++i) {
    ops.fetch_add(1000);
    std::this_thread::sleep_for(25ms);
  }
  monitor.stop();
  EXPECT_FALSE(monitor.running());

  ASSERT_GE(monitor.sample_count(), 3u);
  ASSERT_EQ(monitor.counter_names().size(), 1u);
  EXPECT_EQ(monitor.counter_names()[0], "ops");
  ASSERT_EQ(monitor.gauge_names().size(), 1u);
  EXPECT_EQ(monitor.gauge_names()[0], "level");

  const auto series = monitor.series();
  double max_rate = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    ASSERT_EQ(series[i].counters.size(), 1u);
    ASSERT_EQ(series[i].rates.size(), 1u);
    ASSERT_EQ(series[i].gauges.size(), 1u);
    EXPECT_GE(series[i].rates[0], 0.0);
    EXPECT_DOUBLE_EQ(series[i].gauges[0], 2.5);
    if (i > 0) {
      // Cumulative counters are monotone and time advances.
      EXPECT_GE(series[i].counters[0], series[i - 1].counters[0]);
      EXPECT_GT(series[i].t_s, series[i - 1].t_s);
    }
    max_rate = std::max(max_rate, series[i].rates[0]);
  }
  // 1000 ops every ~25 ms is ~40k/s; any positive rate proves the deltas
  // flow (CI schedulers make tighter bounds flaky).
  EXPECT_GT(max_rate, 0.0);
  EXPECT_EQ(series.back().counters[0], ops.load());
}

TEST(Monitor, RingStaysBounded) {
  std::atomic<std::uint64_t> ops{0};
  obs::Monitor::Config config;
  config.interval = 1ms;
  config.capacity = 8;
  obs::Monitor monitor(config, counting_source(ops));
  // Drive sampling synchronously — no thread, no timing dependence.
  for (int i = 0; i < 50; ++i) {
    ops.fetch_add(10);
    monitor.sample_now();
  }
  EXPECT_EQ(monitor.sample_count(), 8u);
  // The ring kept the newest samples.
  EXPECT_EQ(monitor.series().back().counters[0], ops.load());
}

TEST(Monitor, CsvDump) {
  std::atomic<std::uint64_t> ops{0};
  obs::Monitor::Config config;
  obs::Monitor monitor(config, counting_source(ops));
  for (int i = 0; i < 3; ++i) {
    ops.fetch_add(7);
    monitor.sample_now();
  }

  std::ostringstream csv;
  monitor.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("t_s,interval_s,ops,ops_per_sec,level\n", 0), 0u);
  // Header + one row per sample, each newline-terminated.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1u + monitor.sample_count());
}

// ---------------------------------------------------------------------------
// HTTP endpoint: real sockets against 127.0.0.1 on an ephemeral port.
// ---------------------------------------------------------------------------

// Minimal blocking HTTP client: one request, read to EOF (the server
// closes after each response).
std::string http_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return {};
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

TEST(HttpServer, ServesRoutesOnEphemeralPort) {
  obs::HttpServer server(0);
  server.handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
  std::atomic<int> hits{0};
  server.handle("/metrics", "text/plain", [&hits] {
    hits.fetch_add(1);
    return std::string("cats_alpha 42\n");
  });
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);
  EXPECT_NE(health.find("Content-Type: text/plain"), std::string::npos);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("cats_alpha 42"), std::string::npos);
  EXPECT_EQ(hits.load(), 1);

  // Query strings are stripped before route matching.
  const std::string with_query = http_get(server.port(), "/metrics?x=1");
  EXPECT_NE(with_query.find("cats_alpha 42"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post = http_request(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(HttpServer, HeadRequestOmitsBody) {
  obs::HttpServer server(0);
  server.handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
  ASSERT_TRUE(server.start());
  const std::string head = http_request(
      server.port(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(head.find("\r\n\r\nok"), std::string::npos);
  server.stop();
}

// MonitoredRun with --trace-out: the ctor enables the flight recorder, the
// endpoint serves the live trace at /trace.json, and finish() writes the
// same document (parseable Chrome trace JSON) to the requested file.
TEST(Monitor, MonitoredRunServesAndWritesTrace) {
  const char* trace_path = "monitor_test_trace.json";
  harness::Options opt;
  opt.monitor_interval_ms = 0;  // no sampler thread; trace only
  opt.monitor_port = 0;         // ephemeral endpoint
  opt.trace_out = trace_path;
  opt.trace_sample_shift = 0;  // record every span
  std::atomic<std::uint64_t> ops{0};
  {
    harness::MonitoredRun run(opt, counting_source(ops));
    ASSERT_GT(run.port(), 0);
    ASSERT_TRUE(obs::flight::Recorder::instance().enabled());
    for (Key k = 0; k < 5; ++k) {
      const obs::flight::SpanStart s = obs::flight::begin_span();
      obs::flight::end_span(s, obs::flight::SpanKind::kLookup, k);
    }
    const std::string body = http_get(run.port(), "/trace.json");
    EXPECT_NE(body.find("200 OK"), std::string::npos);
    EXPECT_NE(body.find("Content-Type: application/json"),
              std::string::npos);
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    run.finish();
    EXPECT_FALSE(obs::flight::Recorder::instance().enabled());
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in) << "finish() did not write " << trace_path;
  std::stringstream file;
  file << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(file.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  std::size_t op_spans = 0;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    op_spans += ev.at("ph").as_string() == "X";
  }
  EXPECT_EQ(op_spans, 5u);
  std::remove(trace_path);
}

TEST(HttpServer, SurvivesManySequentialRequests) {
  obs::HttpServer server(0);
  server.handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"),
              std::string::npos);
  }
  server.stop();
}

}  // namespace
