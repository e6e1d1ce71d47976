// Shared pieces of the end-to-end benchmark: the metric report, latency
// statistics, work-counter sums, answer comparison and the reference
// engine that every timed answer is checked against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "category/category_forest.h"
#include "core/bssr_engine.h"
#include "core/query.h"
#include "graph/graph.h"
#include "obs/trace_phase.h"

namespace perfbench {

using skysr::Query;
using skysr::QueryResult;
using skysr::Route;
using skysr::SearchStats;

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// A reported metric: its name and unit as listed in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, and the per-layer
/// metrics every traced run reports (0 where a layer is idle on the
/// workload).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Metric values of one run plus its operation counts, printed as the
/// single JSON line the benchmark contract asks for.
class Report {
 public:
  explicit Report(const std::vector<MetricDef>* defs) : defs_(defs) {}

  /// Records a metric; a name missing from the run's list fails the run.
  void Add(const std::string& name, double value);
  void Fail(const std::string& why);  // marks the run incorrect, logs why

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct() const { return failures_.empty() && failed == 0; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} over every
  /// listed metric, in list order.
  std::string ToJson() const;

 private:
  const std::vector<MetricDef>* defs_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;
};

/// Nearest-rank percentile (p in [0,1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Median of unsorted samples; 0 when empty.
double Median(std::vector<double> samples);

/// Indices of the latency cohorts: p50c = ranks in the 40th-60th
/// percentile band, p99c = the slowest 1% (at least one sample).
struct Cohorts {
  std::vector<size_t> p50c;
  std::vector<size_t> p99c;
};
Cohorts LatencyCohorts(const std::vector<double>& latencies_ms);

/// Self time per trace phase of one query or request, in milliseconds.
using PhaseSelfMs = std::array<double, skysr::kNumTracePhases>;

/// Adds the per-phase cohort metrics shared by every workload (index,
/// retrieval and core phases): `<metric>.p50c` and `<metric>.p99c`, the
/// mean self time of the phase over each cohort's members.
void AddEnginePhaseMetrics(Report* report, const Cohorts& cohorts,
                           const std::vector<PhaseSelfMs>& per_query);

/// Sums of the deterministic SearchStats work counters over a query set.
struct WorkCounters {
  int64_t queries = 0;
  int64_t settled = 0;
  int64_t relaxed = 0;
  int64_t enqueued = 0;
  int64_t dequeued = 0;
  int64_t mdijkstra_runs = 0;
  int64_t cand_examined = 0;
  int64_t cand_pruned = 0;
  int64_t dom_pruned = 0;
  int64_t bucket_runs = 0;
  int64_t resume_runs = 0;
  int64_t bucket_candidates = 0;
  int64_t fwd_searches = 0;
  int64_t skyline_routes = 0;
  int64_t peak_queue_sum = 0;
  int64_t route_nodes = 0;

  void Add(const SearchStats& s);
  bool operator==(const WorkCounters&) const = default;
  std::string ToString() const;
};

/// Adds the `work.*` sums and the per-query `core.*` / `retrieval.*`
/// counts derived from them.
void AddWorkMetrics(Report* report, const WorkCounters& w);

/// True when both skylines hold the same routes, PoI for PoI, with
/// bit-identical scores.
bool SameSkyline(const std::vector<Route>& a, const std::vector<Route>& b);

/// Reference answers: each query run on a fresh engine with no oracle,
/// no bucket tables and no caches, spread over `threads` threads. Also
/// reports which queries ran in deferred Lemma 5.5 mode (from the
/// reference engine's explain plan). A failed reference query leaves an
/// empty skyline and is flagged in `ok`.
struct ReferenceAnswers {
  std::vector<std::vector<Route>> routes;
  std::vector<char> ok;
  std::vector<char> deferred;
};
ReferenceAnswers ComputeReferences(const skysr::Graph& g,
                                   const skysr::CategoryForest& forest,
                                   const std::vector<Query>& queries,
                                   int threads);

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// Seconds on a steady clock since an arbitrary epoch.
double NowSeconds();

/// Independent sub-seed `stream` of the run seed (SplitMix64 chain).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Logs a line to stderr (the human-readable side of the run).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
