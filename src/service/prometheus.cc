#include "service/prometheus.h"

#include <array>
#include <cinttypes>
#include <cstdio>

namespace skysr {

namespace {

void Counter(std::string* out, const char* name, const char* help,
             int64_t value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s counter\n%s %" PRId64 "\n", name,
                help, name, name, value);
  *out += buf;
}

void Gauge(std::string* out, const char* name, const char* help,
           double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s gauge\n%s %.9g\n", name, help, name,
                name, value);
  *out += buf;
}

// Emits a cumulative-bucket histogram in the LatencyHistogram geometry.
// `total` is the observation count; +Inf restates it per the exposition
// contract. Optional per-bucket exemplars (OpenMetrics syntax, id 0 = none)
// append ` # {trace_id="q<id>"} <value>` to their bucket line, linking a
// tail bucket to the query that last landed there; no timestamp is emitted
// so the exposition stays a pure function of the snapshot. Buckets without
// an exemplar are byte-identical to the plain exposition.
void Histogram(
    std::string* out, const char* name, const char* help,
    const std::array<int64_t, LatencyHistogram::kNumBuckets>& buckets,
    int64_t total, double sum_ms,
    const std::array<int64_t, LatencyHistogram::kNumBuckets>* exemplar_ids =
        nullptr,
    const std::array<double, LatencyHistogram::kNumBuckets>* exemplar_values =
        nullptr) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "# HELP %s %s\n# TYPE %s histogram\n",
                name, help, name);
  *out += buf;
  int64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    cumulative += buckets[static_cast<size_t>(i)];
    const int64_t ex_id =
        exemplar_ids != nullptr ? (*exemplar_ids)[static_cast<size_t>(i)] : 0;
    if (ex_id != 0) {
      std::snprintf(buf, sizeof(buf),
                    "%s_bucket{le=\"%.9g\"} %" PRId64
                    " # {trace_id=\"q%" PRId64 "\"} %.9g\n",
                    name, LatencyHistogram::UpperBoundMs(i), cumulative, ex_id,
                    (*exemplar_values)[static_cast<size_t>(i)]);
    } else {
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%.9g\"} %" PRId64 "\n",
                    name, LatencyHistogram::UpperBoundMs(i), cumulative);
    }
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRId64 "\n",
                name, total);
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%s_sum %.9g\n", name, sum_ms);
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%s_count %" PRId64 "\n", name, total);
  *out += buf;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& s) {
  std::string out;
  out.reserve(8192);
  Counter(&out, "skysr_queries_submitted_total",
          "Queries accepted into the service.", s.submitted);
  Counter(&out, "skysr_queries_completed_total",
          "Queries answered OK (engine or cache).", s.completed);
  Counter(&out, "skysr_query_errors_total",
          "Queries answered with a non-OK status.", s.errors);
  Counter(&out, "skysr_queries_rejected_total",
          "Submissions refused (queue full or shut down).", s.rejected);
  Counter(&out, "skysr_result_cache_hits_total",
          "Result-cache lookups that hit.", s.cache_hits);
  Counter(&out, "skysr_result_cache_misses_total",
          "Result-cache lookups that missed.", s.cache_misses);
  Counter(&out, "skysr_vertices_settled_total",
          "Graph vertices settled by executed queries.", s.vertices_settled);
  Counter(&out, "skysr_edges_relaxed_total",
          "Graph edges relaxed by executed queries.", s.edges_relaxed);
  Counter(&out, "skysr_routes_found_total",
          "Skyline routes returned by executed queries.", s.routes_found);
  Counter(&out, "skysr_xcache_fwd_hits_total",
          "Shared-cache forward-search hits (incl. snapshot hits).",
          s.xcache_fwd_hits);
  Counter(&out, "skysr_xcache_fwd_misses_total",
          "Shared-cache forward-search misses.", s.xcache_fwd_misses);
  Counter(&out, "skysr_xcache_fwd_evictions_total",
          "Shared-cache forward-search evictions.", s.xcache_fwd_evictions);
  Counter(&out, "skysr_xcache_resume_reuses_total",
          "Shared-cache resumable-slot reuses.", s.xcache_resume_reuses);
  Counter(&out, "skysr_xcache_resume_evictions_total",
          "Shared-cache resumable-slot evictions.", s.xcache_resume_evictions);
  Gauge(&out, "skysr_xcache_resident_bytes",
        "Shared-cache resident bytes across workers.",
        static_cast<double>(s.xcache_resident_bytes));
  Gauge(&out, "skysr_queue_depth",
        "Submission-queue depth sampled at the last submit.",
        static_cast<double>(s.queue_depth));
  Gauge(&out, "skysr_queue_wait_p99_ms",
        "99th-percentile submission-queue wait of dispatched queries.",
        s.queue_wait_p99_ms);
  Gauge(&out, "skysr_uptime_seconds", "Seconds since metrics reset.",
        s.uptime_seconds);

  Histogram(&out, "skysr_query_latency_ms",
            "End-to-end query latency (submission to completion), "
            "milliseconds.",
            s.latency_bucket_counts, s.completed, s.latency_sum_ms,
            &s.latency_exemplar_ids, &s.latency_exemplar_ms);
  Histogram(&out, "skysr_queue_wait_ms",
            "Submission-queue wait of dispatched queries, milliseconds.",
            s.queue_wait_bucket_counts, s.queue_wait_count,
            s.queue_wait_sum_ms);
  return out;
}

}  // namespace skysr
