// QueryTrace — a zero-steady-state-allocation phase tracer for the query
// engine and the service (ROADMAP "perf-trajectory dashboard" prerequisite).
//
// Design constraints, in order:
//   1. Disabled (the default) must cost ONE predictable branch per span
//      site and allocate nothing, so the golden work counters and the
//      ~20 allocs/query steady state are untouched.
//   2. Enabled must still not allocate per query: events land in a
//      fixed-capacity ring buffer sized once at Enable(); overflow
//      overwrites the oldest events (and is counted) instead of growing.
//   3. Export must be loadable by chrome://tracing / Perfetto (trace-event
//      JSON, see trace_export.h) and cheap to aggregate (per-phase
//      count/total/max, see trace_phase.h).
//
// Usage (engine side):
//   QueryTrace trace(/*capacity=*/4096);   // allocates here, once
//   trace.set_enabled(true);
//   engine.AttachTrace(&trace);
//   engine.Run(query);                     // spans recorded
//   WriteFile(path, TraceToChromeJson(trace));
//
// Span sites use the RAII TraceSpan:
//   { TraceSpan s(trace_, TracePhase::kNnInit); RunNnInit(...); }
// A null or disabled trace makes the constructor a single branch and the
// destructor a no-op.
//
// Threading: a QueryTrace is single-writer, like the engine that owns it.
// Concurrent reads while a query is in flight see torn state; export after
// the writer quiesces (the service exports between batches / at shutdown).

#ifndef SKYSR_OBS_QUERY_TRACE_H_
#define SKYSR_OBS_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/trace_phase.h"

namespace skysr {

/// One closed span. Times are nanoseconds relative to the trace epoch
/// (reset by Clear); the epoch itself is process-steady-clock absolute so
/// traces from different workers merge on one timeline.
struct TraceEvent {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  TracePhase phase = TracePhase::kQuery;
  uint8_t depth = 0;  // span-nesting depth at entry (root = 0)
};

class QueryTrace {
 public:
  /// `capacity` = ring size in events; clamped to >= 16. All allocation
  /// happens here.
  explicit QueryTrace(size_t capacity = kDefaultCapacity);

  /// Master switch. Enabling does not clear — call Clear() to start a
  /// fresh window. Disabled traces record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Drops all events and aggregates and restarts the epoch.
  void Clear();

  /// Nanoseconds since the trace epoch.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
               .count() -
           epoch_ns_;
  }

  /// Absolute epoch (steady-clock ns), for cross-trace timeline merging.
  int64_t epoch_ns() const { return epoch_ns_; }

  /// Records a closed span. `start_ns` is relative to the epoch (NowNs at
  /// entry). Called by ~TraceSpan; also usable directly for externally
  /// timed regions (the service's queue-wait is measured by the task's own
  /// timer, not a live span).
  void Record(TracePhase phase, int64_t start_ns, int64_t dur_ns,
              uint8_t depth) {
    if (!enabled_) return;
    TraceEvent& e = ring_[head_];
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    e.phase = phase;
    e.depth = depth;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
    aggregates_.of(phase).Add(dur_ns);
  }

  /// Span-nesting bookkeeping for TraceSpan.
  uint8_t EnterSpan() {
    const uint8_t d = depth_;
    if (depth_ < 255) ++depth_;
    return d;
  }
  void ExitSpan() {
    if (depth_ > 0) --depth_;
  }

  /// Events oldest-first (ring order resolved). O(size) copy-free walk via
  /// the visitor so export never materializes a second buffer.
  template <typename Fn>
  void ForEachEvent(Fn&& fn) const {
    const size_t cap = ring_.size();
    const size_t first = size_ < cap ? 0 : head_;
    for (size_t i = 0; i < size_; ++i) {
      fn(ring_[(first + i) % cap]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  /// Events overwritten since the last Clear (ring wrapped).
  int64_t dropped() const { return dropped_; }

  const PhaseAggregates& aggregates() const { return aggregates_; }

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  using Clock = std::chrono::steady_clock;

  std::vector<TraceEvent> ring_;
  size_t head_ = 0;   // next write position
  size_t size_ = 0;   // valid events
  int64_t dropped_ = 0;
  uint8_t depth_ = 0;
  bool enabled_ = false;
  int64_t epoch_ns_ = 0;
  PhaseAggregates aggregates_;
};

/// RAII span. Construction on a null or disabled trace is one branch; the
/// destructor then does nothing. No allocation either way.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, TracePhase phase) {
    if (trace != nullptr && trace->enabled()) {
      trace_ = trace;
      phase_ = phase;
      depth_ = trace->EnterSpan();
      start_ns_ = trace->NowNs();
    }
  }

  ~TraceSpan() { Close(); }

  /// Records the span now instead of at destruction (idempotent). Lets a
  /// caller end its root span before reading the trace's aggregates.
  void Close() {
    if (trace_ != nullptr) {
      trace_->ExitSpan();
      trace_->Record(phase_, start_ns_, trace_->NowNs() - start_ns_, depth_);
      trace_ = nullptr;
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_ = nullptr;
  TracePhase phase_ = TracePhase::kQuery;
  uint8_t depth_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_OBS_QUERY_TRACE_H_
