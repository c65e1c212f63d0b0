#include "obs/http_server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace cats::obs {

namespace {

/// Writes the whole buffer, retrying short writes; MSG_NOSIGNAL so a
/// disconnected client yields EPIPE instead of killing the process.
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // client gone; nothing to salvage
    off += static_cast<std::size_t>(n);
  }
}

std::string make_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return head + body;
}

}  // namespace

HttpServer::HttpServer(int port) : requested_port_(port) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, std::string content_type,
                        Handler handler) {
  routes_.push_back(
      Route{std::move(path), std::move(content_type), std::move(handler)});
}

bool HttpServer::start() {
  if (thread_.joinable()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "obs::HttpServer: socket() failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    std::fprintf(stderr, "obs::HttpServer: bind/listen on port %d failed: %s\n",
                 requested_port_, std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  thread_ = std::thread([this] { run(); });
  return true;
}

void HttpServer::stop() {
  if (!thread_.joinable()) return;
  // shutdown() wakes the blocked accept(); the loop then sees the fd is
  // dead and exits.  close() only after the join so the descriptor number
  // cannot be reused while the thread still touches it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::run() {
  while (true) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket shut down (or broken): server is done
    }
    // A stalled client must not wedge the single server thread.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    serve_client(client);
    ::close(client);
  }
}

void HttpServer::serve_client(int client_fd) {
  // Read until the end of the request head (we ignore everything past the
  // request line) or a small cap; scrape requests are tiny.
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    const ssize_t n = ::recv(client_fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // not even a request line
  const std::string line = request.substr(0, line_end);

  // "GET /path HTTP/1.1" — method, target, version.
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    send_all(client_fd, make_response(400, "Bad Request", "text/plain",
                                      "bad request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET" && method != "HEAD") {
    send_all(client_fd,
             make_response(405, "Method Not Allowed", "text/plain",
                           "only GET is served here\n"));
    return;
  }
  for (const Route& route : routes_) {
    if (route.path != path) continue;
    std::string response =
        make_response(200, "OK", route.content_type, route.handler());
    if (method == "HEAD") response.resize(response.find("\r\n\r\n") + 4);
    send_all(client_fd, response);
    return;
  }
  std::string listing = "not found; routes:\n";
  for (const Route& route : routes_) listing += "  " + route.path + "\n";
  send_all(client_fd, make_response(404, "Not Found", "text/plain", listing));
}

}  // namespace cats::obs
