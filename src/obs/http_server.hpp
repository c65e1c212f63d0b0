// Embedded metrics endpoint: a minimal single-threaded blocking HTTP/1.1
// listener, zero dependencies.
//
// Serves GET requests from one background thread — accept, read the
// request head, invoke the route's handler, write the full response, close.
// That is the right shape for a scrape endpoint: Prometheus polls one
// request every few seconds, a human curls now and then.  It is explicitly
// NOT a general web server — no keep-alive, no TLS, no request bodies, no
// concurrency; a slow client can delay the next scrape (reads time out
// after a few seconds so it cannot wedge the thread forever).
//
// Handlers run on the server thread concurrently with the workload, so they
// must only use concurrency-safe reads — which all obs sources are
// (aggregate-on-read counters, EBR-guarded topology walks).
#pragma once

#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace cats::obs {

class HttpServer {
 public:
  /// Returns the response body for one GET request.
  using Handler = std::function<std::string()>;

  /// `port` 0 binds an ephemeral port; read the actual one from port()
  /// after start().
  explicit HttpServer(int port);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a route.  Call before start(); the route table is read
  /// without locks once the server thread runs.
  void handle(std::string path, std::string content_type, Handler handler);

  /// Binds, listens and spawns the server thread.  Returns false (with a
  /// message on stderr) if the socket could not be set up.
  bool start();
  /// Closes the listening socket and joins the thread.  Idempotent.
  void stop();
  bool running() const { return thread_.joinable(); }

  /// Port actually bound (resolves ephemeral requests); 0 before start().
  int port() const { return bound_port_; }

 private:
  struct Route {
    std::string path;
    std::string content_type;
    Handler handler;
  };

  void run();
  void serve_client(int client_fd);

  std::vector<Route> routes_;
  int requested_port_;
  int bound_port_ = 0;
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace cats::obs
