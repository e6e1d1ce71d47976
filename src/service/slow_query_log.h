// Bounded reservoir of the N slowest queries a QueryService has answered —
// the "what was slow and why" complement to the aggregate histogram.
//
// Each record carries enough to diagnose the query offline: its canonical
// key, the queue-wait / execute split of the end-to-end latency and the
// engine's own SearchStats (effort, feasibility verdict, the query's
// forward-search and resumable-slot reuses in its worker's shared cache
// and, when the service runs with tracing enabled, the per-phase time
// breakdown). The record adds no counter of its own: the service times the
// query, and every count is the engine's or the shared cache's, as
// SearchStats holds it.
//
// The log is thread-safe and cheap on the fast path: a query that cannot
// displace the current floor is rejected on one relaxed atomic load, no
// lock taken. Only genuine slowest-N candidates (at most N + the few races
// around the floor) pay the mutex.

#ifndef SKYSR_SERVICE_SLOW_QUERY_LOG_H_
#define SKYSR_SERVICE_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/search_stats.h"
#include "obs/explain.h"

namespace skysr {

/// One slow query, as captured at completion time.
struct SlowQueryRecord {
  std::string key;       // canonical query key ("" for uncacheable queries)
  double latency_ms = 0;     // end-to-end, submission to completion
  double queue_wait_ms = 0;  // submission to worker pickup
  double execute_ms = 0;     // worker pickup to completion
  bool cache_hit = false;    // served from the result cache
  int64_t routes = 0;
  // The engine's counters for this execution, as the engine wrote them;
  // all-zero for a result-cache hit, which ran no search. Phases stay
  // all-zero unless the service traces. `explain` renders against these.
  SearchStats stats;
  // Service-assigned sequence number (the exemplar trace_id "q<N>" in the
  // Prometheus exposition refers to this); 0 when unassigned.
  int64_t query_id = 0;
  // Decision attribution; null unless the query ran with
  // QueryOptions::explain. Shared with the QueryResult — not a copy.
  std::shared_ptr<const QueryExplain> explain;

  /// One-line summary ("12.345ms (wait 0.1 exec 12.2) key=... ...").
  std::string ToString() const;
};

/// Keeps the `capacity` slowest records by latency_ms. capacity 0 disables
/// (every Offer is a single load).
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  /// Admits `rec` if it beats the current floor (always, while not full).
  void Offer(SlowQueryRecord rec);

  /// The retained records, slowest first.
  std::vector<SlowQueryRecord> Snapshot() const;

  /// Drops all records and resets the admission floor.
  void Clear();

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  // Admission floor: the min latency in a FULL log (-1 while not full, so
  // everything is offered under the lock). Monotone per epoch; stale reads
  // only admit borderline records, never reject qualifying ones.
  std::atomic<double> floor_ms_{-1.0};
  mutable std::mutex mu_;
  std::vector<SlowQueryRecord> heap_;  // min-heap on latency_ms
};

}  // namespace skysr

#endif  // SKYSR_SERVICE_SLOW_QUERY_LOG_H_
