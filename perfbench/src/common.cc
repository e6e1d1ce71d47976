#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "obs/explain.h"
#include "util/memory.h"
#include "util/rng.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"qps", "1/s"},          {"lat_p50_ms", "ms"}, {"lat_p99_ms", "ms"},
      {"setup_s", "s"},        {"rss_peak_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"workload.gen_s", "s"},
      {"workload.timed_queries", "count"},
      {"workload.deferred_share", "ratio"},
      {"index.ch_build_s", "s"},
      {"index.oracle_table_ms.p50c", "ms"},
      {"index.oracle_table_ms.p99c", "ms"},
      {"retrieval.bucket_build_s", "s"},
      {"retrieval.bucket_runs", "count"},
      {"retrieval.resume_runs", "count"},
      {"retrieval.candidates", "count"},
      {"retrieval.self_ms.p50c", "ms"},
      {"retrieval.self_ms.p99c", "ms"},
      {"cache.fwd_lookups", "count"},
      {"cache.fwd_hit_rate", "ratio"},
      {"cache.resume_reuse_rate", "ratio"},
      {"cache.resident_mb", "MB"},
      {"core.run_self_ms.p50c", "ms"},
      {"core.run_self_ms.p99c", "ms"},
      {"core.nn_init_ms.p50c", "ms"},
      {"core.nn_init_ms.p99c", "ms"},
      {"core.lower_bound_ms.p50c", "ms"},
      {"core.lower_bound_ms.p99c", "ms"},
      {"core.dest_tails_ms.p50c", "ms"},
      {"core.dest_tails_ms.p99c", "ms"},
      {"core.qb_drain_ms.p50c", "ms"},
      {"core.qb_drain_ms.p99c", "ms"},
      {"core.expansion_ms.p50c", "ms"},
      {"core.expansion_ms.p99c", "ms"},
      {"core.skyline_insert_ms.p50c", "ms"},
      {"core.skyline_insert_ms.p99c", "ms"},
      {"core.settled", "count"},
      {"core.routes_enqueued", "count"},
      {"core.cand_examined", "count"},
      {"core.prune_ratio", "ratio"},
      {"core.dominance_pruned", "count"},
      {"core.peak_queue", "count"},
      {"core.route_nodes", "count"},
      {"service.start_s", "s"},
      {"service.execute_ms.p50", "ms"},
      {"service.execute_ms.p99", "ms"},
      {"service.wait_ms.p50", "ms"},
      {"service.wait_ms.p99", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.cache_lookup_ms", "ms"},
      {"service.result_cache_hit_rate", "ratio"},
      {"service.rejected", "count"},
      {"service.errors", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.explain_overhead_pct", "%"},
      {"obs.trace_dropped", "count"},
      {"client.in_flight", "count"},
      {"work.queries", "count"},
      {"work.settled", "count"},
      {"work.relaxed", "count"},
      {"work.enqueued", "count"},
      {"work.dequeued", "count"},
      {"work.mdijkstra_runs", "count"},
      {"work.cand_examined", "count"},
      {"work.cand_pruned", "count"},
      {"work.dom_pruned", "count"},
      {"work.bucket_runs", "count"},
      {"work.resume_runs", "count"},
      {"work.fwd_searches", "count"},
      {"work.skyline_routes", "count"},
  };
  return kDefs;
}

void Report::Add(const std::string& name, double value) {
  for (const MetricDef& d : *defs_) {
    if (name == d.name) {
      values_.emplace_back(name, value);
      return;
    }
  }
  // Metrics of the other list (per-layer on an untraced run and the
  // reverse) are simply not reported; an unknown name is a bug.
  const auto& others =
      defs_ == &EndToEndMetrics() ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : others) {
    if (name == d.name) return;
  }
  Fail("unknown metric " + name);
}

void Report::Fail(const std::string& why) {
  Log("CHECK FAILED: %s", why.c_str());
  failures_.push_back(why);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : *defs_) {
    double value = 0;
    for (const auto& [name, v] : values_) {
      if (name == d.name) value = v;
    }
    char text[64];
    // %.17g keeps every digit of the measurement; a non-finite value is
    // reported as 0 so the line stays valid JSON.
    std::snprintf(text, sizeof(text), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + d.name + "\": {\"value\": " + text +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Cohorts LatencyCohorts(const std::vector<double>& latencies_ms) {
  Cohorts c;
  const size_t n = latencies_ms.size();
  if (n == 0) return c;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return latencies_ms[a] < latencies_ms[b];
  });
  const size_t lo = n * 40 / 100;
  const size_t hi = std::max(lo + 1, n * 60 / 100);
  for (size_t r = lo; r < hi && r < n; ++r) c.p50c.push_back(order[r]);
  const size_t tail = std::max<size_t>(1, (n + 99) / 100);
  for (size_t r = n - tail; r < n; ++r) c.p99c.push_back(order[r]);
  return c;
}

namespace {

void AddCohortPhase(Report* report, const std::string& prefix,
                    skysr::TracePhase phase, const Cohorts& cohorts,
                    const std::vector<PhaseSelfMs>& per_query) {
  const auto mean = [&](const std::vector<size_t>& members) {
    if (members.empty()) return 0.0;
    double sum = 0;
    for (size_t i : members) sum += per_query[i][static_cast<int>(phase)];
    return sum / static_cast<double>(members.size());
  };
  report->Add(prefix + ".p50c", mean(cohorts.p50c));
  report->Add(prefix + ".p99c", mean(cohorts.p99c));
}

}  // namespace

void AddEnginePhaseMetrics(Report* report, const Cohorts& cohorts,
                           const std::vector<PhaseSelfMs>& per_query) {
  using skysr::TracePhase;
  AddCohortPhase(report, "index.oracle_table_ms", TracePhase::kOracleTable,
                 cohorts, per_query);
  AddCohortPhase(report, "retrieval.self_ms", TracePhase::kRetrieval, cohorts,
                 per_query);
  AddCohortPhase(report, "core.run_self_ms", TracePhase::kQuery, cohorts,
                 per_query);
  AddCohortPhase(report, "core.nn_init_ms", TracePhase::kNnInit, cohorts,
                 per_query);
  AddCohortPhase(report, "core.lower_bound_ms", TracePhase::kLowerBound,
                 cohorts, per_query);
  AddCohortPhase(report, "core.dest_tails_ms", TracePhase::kDestTails,
                 cohorts, per_query);
  AddCohortPhase(report, "core.qb_drain_ms", TracePhase::kQbDrain, cohorts,
                 per_query);
  AddCohortPhase(report, "core.expansion_ms", TracePhase::kExpansion, cohorts,
                 per_query);
  AddCohortPhase(report, "core.skyline_insert_ms", TracePhase::kSkylineInsert,
                 cohorts, per_query);
}

void WorkCounters::Add(const SearchStats& s) {
  ++queries;
  settled += s.vertices_settled;
  relaxed += s.edges_relaxed;
  enqueued += s.routes_enqueued;
  dequeued += s.routes_dequeued;
  mdijkstra_runs += s.mdijkstra_runs;
  cand_examined += s.cand_examined;
  cand_pruned += s.cand_pruned;
  dom_pruned += s.qb_dominance_pruned;
  bucket_runs += s.retriever_bucket_runs;
  resume_runs += s.retriever_resume_runs;
  bucket_candidates += s.bucket_candidates;
  fwd_searches += s.bucket_fwd_searches;
  skyline_routes += s.skyline_size;
  peak_queue_sum += s.peak_queue_size;
  route_nodes += s.route_nodes;
}

std::string WorkCounters::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "queries=%lld settled=%lld relaxed=%lld enqueued=%lld dequeued=%lld "
      "runs=%lld examined=%lld pruned=%lld dom_pruned=%lld bucket_runs=%lld "
      "resume_runs=%lld candidates=%lld fwd_searches=%lld skyline=%lld",
      static_cast<long long>(queries), static_cast<long long>(settled),
      static_cast<long long>(relaxed), static_cast<long long>(enqueued),
      static_cast<long long>(dequeued),
      static_cast<long long>(mdijkstra_runs),
      static_cast<long long>(cand_examined),
      static_cast<long long>(cand_pruned), static_cast<long long>(dom_pruned),
      static_cast<long long>(bucket_runs),
      static_cast<long long>(resume_runs),
      static_cast<long long>(bucket_candidates),
      static_cast<long long>(fwd_searches),
      static_cast<long long>(skyline_routes));
  return buf;
}

void AddWorkMetrics(Report* report, const WorkCounters& w) {
  const double n = std::max<double>(1, static_cast<double>(w.queries));
  const auto per_query = [&](int64_t v) { return static_cast<double>(v) / n; };
  report->Add("retrieval.bucket_runs", per_query(w.bucket_runs));
  report->Add("retrieval.resume_runs", per_query(w.resume_runs));
  report->Add("retrieval.candidates", per_query(w.bucket_candidates));
  report->Add("core.settled", per_query(w.settled));
  report->Add("core.routes_enqueued", per_query(w.enqueued));
  report->Add("core.cand_examined", per_query(w.cand_examined));
  report->Add("core.prune_ratio",
              w.cand_examined > 0 ? static_cast<double>(w.cand_pruned) /
                                        static_cast<double>(w.cand_examined)
                                  : 0.0);
  report->Add("core.dominance_pruned", per_query(w.dom_pruned));
  report->Add("core.peak_queue", per_query(w.peak_queue_sum));
  report->Add("core.route_nodes", per_query(w.route_nodes));

  const auto count = [](int64_t v) { return static_cast<double>(v); };
  report->Add("work.queries", count(w.queries));
  report->Add("work.settled", count(w.settled));
  report->Add("work.relaxed", count(w.relaxed));
  report->Add("work.enqueued", count(w.enqueued));
  report->Add("work.dequeued", count(w.dequeued));
  report->Add("work.mdijkstra_runs", count(w.mdijkstra_runs));
  report->Add("work.cand_examined", count(w.cand_examined));
  report->Add("work.cand_pruned", count(w.cand_pruned));
  report->Add("work.dom_pruned", count(w.dom_pruned));
  report->Add("work.bucket_runs", count(w.bucket_runs));
  report->Add("work.resume_runs", count(w.resume_runs));
  report->Add("work.fwd_searches", count(w.fwd_searches));
  report->Add("work.skyline_routes", count(w.skyline_routes));
}

bool SameSkyline(const std::vector<Route>& a, const std::vector<Route>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pois != b[i].pois) return false;
    if (a[i].scores.length != b[i].scores.length ||
        a[i].scores.semantic != b[i].scores.semantic) {
      return false;
    }
  }
  return true;
}

ReferenceAnswers ComputeReferences(const skysr::Graph& g,
                                   const skysr::CategoryForest& forest,
                                   const std::vector<Query>& queries,
                                   int threads) {
  ReferenceAnswers ref;
  ref.routes.resize(queries.size());
  ref.ok.assign(queries.size(), 0);
  ref.deferred.assign(queries.size(), 0);
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    skysr::BssrEngine engine(g, forest);
    skysr::QueryOptions options;
    options.explain = true;
    for (size_t i = next.fetch_add(1); i < queries.size();
         i = next.fetch_add(1)) {
      auto r = engine.Run(queries[i], options);
      if (!r.ok() || r->stats.timed_out) continue;
      ref.ok[i] = 1;
      ref.deferred[i] = r->explain != nullptr && r->explain->deferred_lemma55;
      ref.routes[i] = std::move(r->routes);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return ref;
}

double PeakRssMb() {
  return static_cast<double>(skysr::PeakRssBytes()) / (1024.0 * 1024.0);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return skysr::SplitMix64(state);
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
