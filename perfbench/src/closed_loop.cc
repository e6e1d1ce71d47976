// paper_city and flex_tail: one closed-loop client driving one BssrEngine
// set up like a service worker (CH oracle, category-bucket tables, an
// engine-lifetime SharedQueryCache).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/shared_query_cache.h"
#include "index/ch_oracle.h"
#include "obs/query_trace.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "service/result_cache.h"
#include "setup.h"
#include "trace_spans.h"
#include "util/rng.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using skysr::BssrEngine;
using skysr::Dataset;
using skysr::QueryOptions;
using skysr::QueryTrace;
using skysr::Rng;
using skysr::SharedCacheCounters;
using skysr::SharedQueryCache;

// Ring size of the traced engine (128 MB). Each query's spans are read and
// cleared before the next query; the heaviest flex_tail query records
// about 1.5 million. A ring that still wraps shows in obs.trace_dropped.
constexpr size_t kTraceCapacity = size_t{1} << 22;

// Reference answers are computed after the timed window on this many
// threads (the machine's vCPUs); they are never timed.
constexpr int kReferenceThreads = 4;

struct ClosedLoopSpec {
  const char* name;
  std::function<Dataset()> make_dataset;
  /// `warm` + `timed` pairwise-distinct queries; the first `warm` are the
  /// untimed warm-up set.
  std::function<std::vector<Query>(const Dataset&, uint64_t seed, int warm,
                                   int timed)>
      make_queries;
  /// Queries per second the seed commit sustains; sets the timed query
  /// count so a run measures for about the requested seconds.
  double nominal_qps;
  int warmup_queries;
  int setup_reps;
  /// Fails the run when the workload's target layer stayed idle or a
  /// bypassed layer did work.
  std::function<void(const WorkCounters&, const SharedCacheCounters&,
                     Report*)>
      gate;
};

enum class PassMode { kPlain, kTraced, kExplain };

struct PassResult {
  std::vector<double> latencies_ms;
  std::vector<std::vector<Route>> routes;
  std::vector<char> ok;
  WorkCounters work;
  SharedCacheCounters xcache;
  int64_t xcache_bytes = 0;
  double run_s = 0;   // sum of the timed Run() calls
  double wall_s = 0;  // the whole timed loop (all engines of the pass)
  std::vector<PhaseSelfMs> phases;  // traced pass only
  int64_t trace_dropped = 0;
  int64_t max_query_spans = 0;
};

/// One engine set up like a service worker, in one of the pass modes.
struct PassEngine {
  PassEngine(const Indexed& setup, PassMode mode)
      : engine(setup.dataset->graph, setup.dataset->forest, setup.ch.get(),
               setup.buckets.get()) {
    engine.AttachSharedCache(&xcache);
    if (mode == PassMode::kTraced) {
      trace = std::make_unique<QueryTrace>(kTraceCapacity);
      trace->set_enabled(true);
      engine.AttachTrace(trace.get());
    }
    options.explain = mode == PassMode::kExplain;
  }

  SharedQueryCache xcache;
  std::unique_ptr<QueryTrace> trace;  // outlives the engine that records
  BssrEngine engine;
  QueryOptions options;
  PassResult out;
};

/// Runs the warm-up and then the timed queries on one fresh engine per
/// mode. With several modes every query runs on each engine in turn,
/// rotating which goes first, so their timings are paired query by query
/// and slow drift of the machine falls on all of them alike.
std::vector<PassResult> RunPasses(const Indexed& setup,
                                  const std::vector<Query>& warm,
                                  const std::vector<Query>& timed,
                                  const std::vector<PassMode>& modes) {
  std::vector<std::unique_ptr<PassEngine>> engines;
  for (PassMode mode : modes) {
    engines.push_back(std::make_unique<PassEngine>(setup, mode));
  }
  for (const Query& q : warm) {
    for (auto& e : engines) (void)e->engine.Run(q, e->options);
  }
  const size_t n = timed.size();
  for (auto& e : engines) {
    e->out.latencies_ms.assign(n, 0);
    e->out.routes.resize(n);
    e->out.ok.assign(n, 0);
    if (e->trace != nullptr) e->out.phases.resize(n);
  }
  std::vector<Span> spans;
  const double start = NowSeconds();
  for (size_t i = 0; i < n; ++i) {
    for (size_t turn = 0; turn < engines.size(); ++turn) {
      PassEngine& e = *engines[(i + turn) % engines.size()];
      if (e.trace != nullptr) e.trace->Clear();
      const double t0 = NowSeconds();
      auto r = e.engine.Run(timed[i], e.options);
      const double t1 = NowSeconds();
      e.out.latencies_ms[i] = (t1 - t0) * 1e3;
      e.out.run_s += t1 - t0;
      if (r.ok()) {
        e.out.work.Add(r->stats);
        e.out.ok[i] = r->stats.timed_out ? 0 : 1;
        e.out.routes[i] = std::move(r->routes);
      }
      if (e.trace != nullptr) {
        e.out.trace_dropped += e.trace->dropped();
        SpansFromTrace(*e.trace, &spans);
        e.out.max_query_spans = std::max<int64_t>(
            e.out.max_query_spans, static_cast<int64_t>(spans.size()));
        NestSpans(&spans);
        e.out.phases[i] = SumSelfByPhase(spans);
      }
    }
  }
  const double wall_s = NowSeconds() - start;
  std::vector<PassResult> results;
  for (auto& e : engines) {
    e->out.wall_s = wall_s;
    e->out.xcache = e->xcache.Counters();
    e->out.xcache_bytes = e->xcache.ResidentBytes();
    results.push_back(std::move(e->out));
  }
  return results;
}

/// Checks every pass's answers against the reference engine, the
/// workload's mechanism gates and that all passes did identical work;
/// prints the traffic record. Returns the reference's deferred-mode flags.
std::vector<char> CheckAnswers(const ClosedLoopSpec& spec, const Dataset& ds,
                               const std::vector<Query>& timed,
                               const std::vector<const PassResult*>& passes,
                               Report* report) {
  const double start = NowSeconds();
  ReferenceAnswers ref =
      ComputeReferences(ds.graph, ds.forest, timed, kReferenceThreads);
  Log("%s: reference answers in %.2f s", spec.name, NowSeconds() - start);
  const PassResult& first = *passes.front();
  for (const PassResult* pass : passes) {
    report->attempted += static_cast<int64_t>(timed.size());
    for (size_t i = 0; i < timed.size(); ++i) {
      if (!pass->ok[i] || !ref.ok[i] ||
          !SameSkyline(pass->routes[i], ref.routes[i])) {
        if (report->failed < 5) {
          Log("%s: query %zu does not match the reference", spec.name, i);
        }
        ++report->failed;
      }
    }
    if (!(pass->work == first.work)) {
      report->Fail(std::string(spec.name) +
                   ": work counters differ between identical passes: " +
                   pass->work.ToString() + " vs " + first.work.ToString());
    }
  }
  spec.gate(first.work, first.xcache, report);
  PrintTraffic(spec.name, ds, timed, ref.deferred, /*repeat_share=*/0.0,
               "closed loop, 1 client");
  Log("%s: work %s", spec.name, first.work.ToString().c_str());
  return std::move(ref.deferred);
}

double OverheadPct(double with_s, double without_s) {
  return without_s > 0 ? (with_s / without_s - 1.0) * 100.0 : 0.0;
}

void RunClosedLoop(const ClosedLoopSpec& spec, const RunArgs& args,
                   Report* report) {
  const SetupTimes times = SetUpRepeatedly(spec.make_dataset, spec.setup_reps);
  const Indexed& setup = *times.last;
  const Dataset& ds = *setup.dataset;

  const int timed_n = std::max(
      1, static_cast<int>(std::lround(args.seconds * spec.nominal_qps)));
  std::vector<Query> all =
      spec.make_queries(ds, args.seed, spec.warmup_queries, timed_n);
  const std::vector<Query> warm(all.begin(),
                                all.begin() + spec.warmup_queries);
  const std::vector<Query> timed(all.begin() + spec.warmup_queries,
                                 all.end());

  if (!args.trace) {
    const PassResult plain =
        std::move(RunPasses(setup, warm, timed, {PassMode::kPlain})[0]);
    const double qps = static_cast<double>(timed.size()) / plain.wall_s;
    Log("%s: %zu timed queries in %.3f s, %.1f qps, p50 %.3f ms, p99 %.3f ms",
        spec.name, timed.size(), plain.wall_s, qps,
        Percentile(plain.latencies_ms, 0.50),
        Percentile(plain.latencies_ms, 0.99));
    report->Add("qps", qps);
    report->Add("lat_p50_ms", Percentile(plain.latencies_ms, 0.50));
    report->Add("lat_p99_ms", Percentile(plain.latencies_ms, 0.99));
    report->Add("setup_s", times.median_total_s);
    report->Add("rss_peak_mb", PeakRssMb());
    CheckAnswers(spec, ds, timed, {&plain}, report);
    return;
  }

  // Traced run: the plain, traced and explain engines run the same timed
  // queries side by side, so the work counters must agree exactly and the
  // overheads are paired differences.
  const std::vector<PassResult> passes = RunPasses(
      setup, warm, timed,
      {PassMode::kPlain, PassMode::kTraced, PassMode::kExplain});
  const PassResult& plain = passes[0];
  const PassResult& traced = passes[1];
  const PassResult& explained = passes[2];
  const std::vector<char> deferred =
      CheckAnswers(spec, ds, timed, {&plain, &traced, &explained}, report);
  Log("%s: largest traced query recorded %lld spans", spec.name,
      static_cast<long long>(traced.max_query_spans));

  report->Add("workload.gen_s", times.median_gen_s);
  report->Add("workload.timed_queries", static_cast<double>(timed.size()));
  report->Add("workload.deferred_share", Share(deferred));
  report->Add("index.ch_build_s", times.median_ch_s);
  report->Add("retrieval.bucket_build_s", times.median_bucket_s);
  AddWorkMetrics(report, plain.work);
  AddCacheMetrics(report, plain.xcache, plain.work.resume_runs,
                  plain.xcache_bytes);
  AddEnginePhaseMetrics(report, LatencyCohorts(plain.latencies_ms),
                        traced.phases);
  report->Add("obs.trace_overhead_pct", OverheadPct(traced.run_s, plain.run_s));
  report->Add("obs.explain_overhead_pct",
              OverheadPct(explained.run_s, plain.run_s));
  report->Add("obs.trace_dropped", static_cast<double>(traced.trace_dropped));
}

// ----------------------------------------------------------- paper_city --

/// Sequence sizes lo..hi in equal shares (remainder to the smallest),
/// shuffled.
std::vector<int> BalancedSizes(int n, int lo, int hi, Rng& rng) {
  std::vector<int> ks;
  ks.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ks.push_back(lo + i % (hi - lo + 1));
  for (size_t i = ks.size(); i > 1; --i) {
    std::swap(ks[i - 1], ks[rng.UniformU64(i)]);
  }
  return ks;
}

/// Distinct-tree k=2..5 queries, equal shares per part, every start a
/// distinct vertex, no destinations.
std::vector<Query> PaperCityQueries(const Dataset& ds, uint64_t seed,
                                    int warm, int timed) {
  const auto num_vertices = static_cast<size_t>(ds.graph.num_vertices());
  const size_t total = static_cast<size_t>(warm + timed);
  if (total > num_vertices) {
    Log("paper_city: %zu queries need more distinct starts than %zu vertices",
        total, num_vertices);
    std::exit(2);
  }
  Rng rng(SubSeed(seed, 1));
  std::vector<skysr::VertexId> starts(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    starts[v] = static_cast<skysr::VertexId>(v);
  }
  for (size_t i = 0; i < total; ++i) {  // partial Fisher-Yates
    std::swap(starts[i], starts[i + rng.UniformU64(num_vertices - i)]);
  }
  // Category sequences per size, drawn the way the paper's generator does.
  std::vector<std::vector<Query>> by_size(6);
  std::vector<size_t> used(6, 0);
  for (int k = 2; k <= 5; ++k) {
    skysr::QueryGenParams p;
    p.count = static_cast<int>(total);
    p.sequence_size = k;
    p.distinct_trees = true;
    p.seed = SubSeed(seed, 10 + static_cast<uint64_t>(k));
    by_size[static_cast<size_t>(k)] = skysr::GenerateQueries(ds, p);
  }
  std::vector<Query> out;
  out.reserve(total);
  for (int part : {warm, timed}) {
    for (int k : BalancedSizes(part, 2, 5, rng)) {
      const auto ku = static_cast<size_t>(k);
      Query q = by_size[ku][used[ku]++];
      q.start = starts[out.size()];
      out.push_back(std::move(q));
    }
  }
  return out;
}

// ------------------------------------------------------------ flex_tail --

/// The cluster scenario of the hot-path mix: ~1,200 vertices, 4 random
/// taxonomy trees, 10% multi-category PoIs, Zipf category popularity.
skysr::ScenarioSpec FlexSpec() {
  skysr::ScenarioSpec spec;
  spec.name = "flex-cluster";
  spec.graph.family = skysr::GraphFamily::kCluster;
  spec.graph.target_vertices = 1200;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = skysr::WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = 1200 / 5;
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.num_queries = 0;
  spec.workload.min_sequence = 1;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.15;
  spec.workload.all_of_rate = 0.1;
  spec.workload.none_of_rate = 0.1;
  spec.workload.destination_rate = 0.25;
  skysr::SeedScenarioSpec(&spec, /*master_seed=*/20260731);
  return spec;
}

/// The flex mix's query population is fixed — generated from the
/// scenario's own workload seed — and the run seed only sets the order in
/// which the timed queries arrive (and so what the warm caches hold when
/// each runs). A handful of queries set this mix's tail, its throughput and
/// the process's peak memory; drawing a fresh population per seed made
/// those a lottery over which heavy queries were drawn (peak memory 180 to
/// 540 MB over five seeds), while the fixed population keeps every one of
/// them in every run.
std::vector<Query> FlexQueries(const Dataset& ds, uint64_t seed, int warm,
                               int timed) {
  skysr::ScenarioWorkloadParams params = FlexSpec().workload;
  const size_t total = static_cast<size_t>(warm + timed);
  std::vector<Query> out;
  std::unordered_set<std::string> seen;
  for (uint64_t round = 0; out.size() < total; ++round) {
    params.num_queries = static_cast<int>(total - out.size()) + 64;
    params.seed = SubSeed(FlexSpec().workload.seed, round);
    for (Query& q : skysr::MakeScenarioQueries(ds, params)) {
      if (out.size() == total) break;
      if (seen.insert(skysr::CanonicalQueryKey(q, QueryOptions())).second) {
        out.push_back(std::move(q));
      }
    }
  }
  Rng rng(SubSeed(seed, 4));
  for (size_t i = total; i > static_cast<size_t>(warm) + 1; --i) {
    std::swap(out[i - 1],
              out[static_cast<size_t>(warm) + rng.UniformU64(i - warm)]);
  }
  return out;
}

}  // namespace

void RunPaperCity(const RunArgs& args, Report* report) {
  ClosedLoopSpec spec;
  spec.name = "paper_city";
  spec.make_dataset = [] { return skysr::MakeDataset(CitySpec(0.0)); };
  spec.make_queries = PaperCityQueries;
  spec.nominal_qps = 400;
  spec.warmup_queries = 600;
  spec.setup_reps = 3;
  spec.gate = [](const WorkCounters& w, const SharedCacheCounters& x,
                 Report* r) {
    if (w.bucket_runs != 0 || w.resume_runs != 0) {
      r->Fail("paper_city: retrievers ran (bucket " +
              std::to_string(w.bucket_runs) + ", resume " +
              std::to_string(w.resume_runs) + "); the classic path leaked");
    }
    if (x.fwd_hits + x.fwd_misses != 0 || x.resume_reuses != 0) {
      r->Fail("paper_city: the cross-query cache was used");
    }
  };
  RunClosedLoop(spec, args, report);
}

void RunFlexTail(const RunArgs& args, Report* report) {
  ClosedLoopSpec spec;
  spec.name = "flex_tail";
  spec.make_dataset = [] {
    return std::move(skysr::MakeScenario(FlexSpec()).dataset);
  };
  spec.make_queries = FlexQueries;
  spec.nominal_qps = 225;
  spec.warmup_queries = 300;
  spec.setup_reps = 9;
  spec.gate = [](const WorkCounters& w, const SharedCacheCounters& x,
                 Report* r) {
    if (w.bucket_runs == 0) r->Fail("flex_tail: no bucket retrieval ran");
    if (x.fwd_hits == 0) r->Fail("flex_tail: no forward-cache hits");
  };
  RunClosedLoop(spec, args, report);
}

}  // namespace perfbench
