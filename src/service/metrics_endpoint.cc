#include "service/metrics_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace skysr {

namespace {

// Bounds every blocking recv/send on an accepted connection, so a client
// that connects and then stalls frees the single serve thread (and lets
// Stop() join it) instead of holding it forever.
constexpr int kClientTimeoutMs = 1000;

// Extracts the request path from an HTTP request line ("GET /p?q HTTP/1.1"
// -> "/p"). Malformed lines map to "/" so ancient scrapers still land on
// the default route.
std::string RequestPath(const char* req, size_t len) {
  size_t i = 0;
  while (i < len && req[i] != ' ' && req[i] != '\r' && req[i] != '\n') ++i;
  if (i == len || req[i] != ' ') return "/";
  ++i;  // skip the space after the method
  const size_t start = i;
  while (i < len && req[i] != ' ' && req[i] != '?' && req[i] != '\r' &&
         req[i] != '\n') {
    ++i;
  }
  if (i == start) return "/";
  return std::string(req + start, i - start);
}

}  // namespace

MetricsEndpoint::MetricsEndpoint(int port,
                                 std::function<std::string()> provider)
    : requested_port_(port) {
  // Historical single-provider behavior: the Prometheus exposition on both
  // the canonical scrape path and the root.
  AddRoute("/metrics", "text/plain; version=0.0.4", provider);
  AddRoute("/", "text/plain; version=0.0.4", std::move(provider));
}

MetricsEndpoint::MetricsEndpoint(int port) : requested_port_(port) {}

MetricsEndpoint::~MetricsEndpoint() { Stop(); }

void MetricsEndpoint::AddRoute(std::string path, std::string content_type,
                               std::function<std::string()> provider) {
  for (Route& r : routes_) {
    if (r.path == path) {
      r.content_type = std::move(content_type);
      r.provider = std::move(provider);
      return;
    }
  }
  routes_.push_back(
      Route{std::move(path), std::move(content_type), std::move(provider)});
}

const MetricsEndpoint::Route* MetricsEndpoint::FindRoute(
    const std::string& path) const {
  for (const Route& r : routes_) {
    if (r.path == path) return &r;
  }
  return nullptr;
}

Status MetricsEndpoint::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind/listen 127.0.0.1:" +
                            std::to_string(requested_port_) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  running_.store(true, std::memory_order_release);
  // The serve thread gets its own copy of the fd: listen_fd_ is reset by
  // Stop() and must not be read concurrently.
  thread_ = std::thread([this, fd = listen_fd_] { Serve(fd); });
  return Status::OK();
}

void MetricsEndpoint::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocked accept(); the fd is closed only after the
  // serve thread has exited, so it never accepts on a recycled fd number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsEndpoint::Serve(int listen_fd) {
  const timeval timeout{kClientTimeoutMs / 1000,
                        (kClientTimeoutMs % 1000) * 1000};
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by Stop(), or unrecoverable
    }
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    // Read the request line (one recv is enough for any GET we serve),
    // route on the path, respond, close.
    char req[1024];
    const ssize_t got = ::recv(fd, req, sizeof(req), 0);
    if (got <= 0) {  // hung up, or sent nothing before the timeout
      ::close(fd);
      continue;
    }
    const std::string path = RequestPath(req, static_cast<size_t>(got));
    const Route* route = FindRoute(path);

    std::string body;
    const char* status_line;
    const char* content_type;
    if (route != nullptr) {
      body = route->provider();
      status_line = "HTTP/1.0 200 OK";
      content_type = route->content_type.c_str();
    } else {
      body = "404 not found: " + path + "\n";
      status_line = "HTTP/1.0 404 Not Found";
      content_type = "text/plain";
    }
    char header[256];
    std::snprintf(header, sizeof(header),
                  "%s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  status_line, content_type, body.size());
    std::string response = header;
    response += body;
    // MSG_NOSIGNAL: a scraper that hangs up early must cost one failed
    // send, not a process-killing SIGPIPE.
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n = ::send(fd, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(fd);
  }
}

}  // namespace skysr
