// MetricsEndpoint — a minimal HTTP/1.0 text endpoint for Prometheus scrapes
// and the live /debug dashboard.
//
// One listener thread, one connection at a time, no keep-alive, and a tiny
// path-routing table: the request line's path picks a registered provider
// (query strings are ignored), unknown paths get a 404 with a plain-text
// body, and every response carries Content-Length and Connection: close.
// That is exactly the access pattern of a Prometheus scraper, `curl`, or a
// browser hitting the dashboard, and it keeps the endpoint dependency-free
// (plain POSIX sockets).
//
//   MetricsEndpoint ep(9464, [&] { return service.MetricsToPrometheus(); });
//   ep.AddRoute("/debug", "text/html",
//               [&] { return DebugPageHtml(service.Metrics(), history); });
//   SKYSR_RETURN_NOT_OK(ep.Start());   // binds + spawns the listener
//   ...
//   ep.Stop();                         // idempotent; the dtor calls it too
//
// Providers are invoked on the listener thread, so they must be
// thread-safe (ServiceMetrics snapshots are). Each connection's reads and
// writes time out after a second, so a stalled client cannot hold the
// listener, and a client that hangs up early never raises SIGPIPE. Routes must be registered
// before Start() — the table is read without a lock while serving.

#ifndef SKYSR_SERVICE_METRICS_ENDPOINT_H_
#define SKYSR_SERVICE_METRICS_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace skysr {

class MetricsEndpoint {
 public:
  /// `port` 0 binds an ephemeral port (read it back via port() after
  /// Start). The provider answers "/metrics" and "/" — the historical
  /// single-route behavior, so existing scrape configs keep working.
  MetricsEndpoint(int port, std::function<std::string()> provider);

  /// Routeless endpoint: register paths with AddRoute before Start().
  explicit MetricsEndpoint(int port);

  ~MetricsEndpoint();

  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  /// Registers `provider` for exact-match `path` (query strings are
  /// stripped before matching; a later registration of the same path
  /// wins). Call before Start() only.
  void AddRoute(std::string path, std::string content_type,
                std::function<std::string()> provider);

  /// Binds 127.0.0.1:`port`, starts the listener thread. Fails with
  /// Internal on socket errors (port in use, no permission).
  Status Start();

  /// Stops the listener and joins the thread. Idempotent.
  void Stop();

  /// The bound port; 0 before a successful Start.
  int port() const { return port_; }

 private:
  struct Route {
    std::string path;
    std::string content_type;
    std::function<std::string()> provider;
  };

  void Serve(int listen_fd);
  const Route* FindRoute(const std::string& path) const;

  std::vector<Route> routes_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace skysr

#endif  // SKYSR_SERVICE_METRICS_ENDPOINT_H_
