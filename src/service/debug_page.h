// Live /debug dashboard for a serving QueryService — a single
// self-contained HTML page (no external scripts or styles) rendered from a
// MetricsSnapshot plus a short sampled history, served by MetricsEndpoint
// and refreshed by a <meta http-equiv="refresh"> tag.
//
// The page shows what an operator reaches for first: QPS / p50 / p99
// sparklines over the sampled window, the aggregate counters, and the top-N slow queries — each with its inline
// EXPLAIN tree when the query ran with decision attribution enabled.
//
//   MetricsHistory history(/*capacity=*/120);
//   ep.AddRoute("/debug", "text/html", [&] {
//     MetricsSnapshot s = service.Metrics();
//     history.Sample(s);
//     return DebugPageHtml(s, history);
//   });
//
// Sampling on request keeps the dashboard dependency-free: the sparkline
// advances once per page load (i.e. at the meta-refresh cadence), which is
// exactly the granularity a human watching the page can absorb.

#ifndef SKYSR_SERVICE_DEBUG_PAGE_H_
#define SKYSR_SERVICE_DEBUG_PAGE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/service_metrics.h"

namespace skysr {

/// Fixed-capacity ring of dashboard samples. Thread-safe (the endpoint's
/// listener thread samples while tests read); all allocation happens at
/// construction.
class MetricsHistory {
 public:
  struct Point {
    double qps = 0;        // completed/sec over the interval since last sample
    double p50_ms = 0;     // cumulative latency percentiles at sample time
    double p99_ms = 0;
    int64_t queue_depth = 0;
  };

  explicit MetricsHistory(size_t capacity = 120);

  /// Appends one point derived from `s`: the percentiles and queue depth
  /// verbatim, QPS as the completed-count delta over the uptime delta
  /// since the previous sample (first sample uses lifetime QPS). A
  /// snapshot from before a metrics reset (uptime went backwards) restarts
  /// the delta baseline.
  void Sample(const MetricsSnapshot& s);

  /// The retained points, oldest first.
  std::vector<Point> Points() const;

  void Clear();

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Point> ring_;
  size_t head_ = 0;  // next write position
  size_t size_ = 0;
  int64_t last_completed_ = 0;
  double last_uptime_ = 0;
  bool have_baseline_ = false;
};

/// Renders the dashboard. `refresh_seconds` <= 0 disables auto-refresh
/// (used by tests that want a stable page).
std::string DebugPageHtml(const MetricsSnapshot& snapshot,
                          const MetricsHistory& history,
                          int refresh_seconds = 2);

}  // namespace skysr

#endif  // SKYSR_SERVICE_DEBUG_PAGE_H_
