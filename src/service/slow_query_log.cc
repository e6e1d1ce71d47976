#include "service/slow_query_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace skysr {

namespace {

// Min-heap on latency: the root is the cheapest retained record, i.e. the
// one a faster-than-everything-else candidate must beat.
bool SlowerThan(const SlowQueryRecord& a, const SlowQueryRecord& b) {
  return a.latency_ms > b.latency_ms;
}

}  // namespace

void SlowQueryLog::Offer(SlowQueryRecord rec) {
  if (capacity_ == 0) return;
  if (rec.latency_ms <= floor_ms_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(rec));
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan);
  } else {
    // Re-check under the lock: the floor may have moved past this record.
    if (rec.latency_ms <= heap_.front().latency_ms) return;
    std::pop_heap(heap_.begin(), heap_.end(), SlowerThan);
    heap_.back() = std::move(rec);
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan);
  }
  if (heap_.size() == capacity_) {
    floor_ms_.store(heap_.front().latency_ms, std::memory_order_relaxed);
  }
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  std::vector<SlowQueryRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = heap_;
  }
  std::sort(out.begin(), out.end(), SlowerThan);
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  heap_.clear();
  floor_ms_.store(-1.0, std::memory_order_relaxed);
}

std::string SlowQueryRecord::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "q%lld %10.3fms (wait %.3f exec %.3f)%s%s%s%s settled=%lld "
                "routes=%lld xcache=%lld/%lld/%lld key=%s",
                static_cast<long long>(query_id), latency_ms, queue_wait_ms,
                execute_ms, cache_hit ? " CACHE-HIT" : "",
                stats.timed_out ? " TIMED-OUT" : "",
                stats.infeasible.fired() ? " INFEASIBLE=" : "",
                stats.infeasible.fired()
                    ? stats.infeasible.ToString().c_str()
                    : "",
                static_cast<long long>(stats.vertices_settled),
                static_cast<long long>(routes),
                static_cast<long long>(stats.bucket_fwd_reuses),
                static_cast<long long>(stats.bucket_fwd_searches),
                static_cast<long long>(stats.resume_reuses),
                key.empty() ? "<uncacheable>" : key.c_str());
  std::string out = buf;
  for (int i = 0; i < kNumTracePhases; ++i) {
    const PhaseAggregate& phase = stats.phases.phase[i];
    if (phase.count == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", kTracePhaseNames[i],
                  static_cast<double>(phase.total_ns) / 1e6);
    out += buf;
  }
  return out;
}

}  // namespace skysr
