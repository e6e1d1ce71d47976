// serve_city: QueryService with 3 workers (nproc - 1) under a closed-loop
// stream that one client thread sends and reaps.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sched.h>

#include "retrieval/bucket_retriever.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "setup.h"
#include "trace_spans.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using skysr::Dataset;
using skysr::MetricsSnapshot;
using skysr::QueryOptions;
using skysr::QueryService;
using skysr::Rng;
using skysr::ServiceConfig;

constexpr int kWorkers = 3;
constexpr int kSetupReps = 3;
// The client keeps two requests per worker in flight, so a worker that
// finishes a task finds the next one queued instead of sleeping. An
// open-loop Poisson stream at a quarter of capacity left the workers idle
// between requests, and on this VM waking an idle CPU under hypervisor
// contention swung p50 latency 1.1-2.3 ms and p99 8-21 ms between runs.
constexpr size_t kInFlight = 2 * kWorkers;
// Requests per second the seed commit completes at that depth; sets the
// request count so a run measures for about the requested seconds.
constexpr double kNominalQps = 1600;
constexpr double kWarmupSeconds = 1.5;
// The hubs are a fixed part of the city, like its roads: the run seed
// draws the request stream over them, not the hubs themselves.
constexpr int kHubs = 64;
constexpr uint64_t kHubSeed = 64064;
constexpr double kHubZipfTheta = 0.8;
constexpr double kRepeatShare = 0.10;
// A repeat copies a distinct query sent between these many requests
// earlier: late enough to have completed, recent enough to still be in the
// service's 512-entry result cache.
constexpr size_t kRepeatMinBack = 64;
constexpr size_t kRepeatMaxBack = 448;
constexpr int kReferenceThreads = 4;
// Requests of the traced pass (a prefix of the timed stream), sized so the
// workers' exported trace stays around 100 MB.
constexpr size_t kTracedRequests = 6000;
// Per-worker ring of the traced pass, sized to hold its whole stream.
constexpr size_t kTraceCapacity = size_t{1} << 21;

/// One request stream: requests in send order and the distinct query each
/// one asks.
struct Stream {
  std::vector<Query> distinct;
  std::vector<size_t> request_query;  // index into `distinct`
  std::vector<char> repeat;           // request is an exact repeat
};

/// Builds the warm-up and timed streams together so their distinct
/// queries never overlap.
class StreamMaker {
 public:
  StreamMaker(const Dataset& ds, uint64_t seed)
      : rng_(SubSeed(seed, 2)), zipf_(kHubs, kHubZipfTheta) {
    Rng hub_rng(kHubSeed);
    std::unordered_set<skysr::VertexId> taken;
    while (static_cast<int>(hubs_.size()) < kHubs) {
      const auto v = static_cast<skysr::VertexId>(hub_rng.UniformU64(
          static_cast<uint64_t>(ds.graph.num_vertices())));
      if (taken.insert(v).second) hubs_.push_back(v);
    }
    // Category sequences per size from the paper's generator, with
    // same-tree positions allowed.
    for (int k = 2; k <= 4; ++k) {
      skysr::QueryGenParams p;
      p.count = 40000;
      p.sequence_size = k;
      p.distinct_trees = false;
      p.seed = SubSeed(seed, 20 + static_cast<uint64_t>(k));
      pools_[k - 2] = skysr::GenerateQueries(ds, p);
    }
  }

  Stream Make(double seconds) {
    Stream s;
    const auto n = static_cast<size_t>(std::lround(seconds * kNominalQps));
    for (size_t i = 0; i < n; ++i) {
      if (s.distinct.size() > kRepeatMinBack && rng_.Bernoulli(kRepeatShare)) {
        const size_t count = s.distinct.size();
        const size_t newest = count - kRepeatMinBack;
        const size_t oldest = count > kRepeatMaxBack ? count - kRepeatMaxBack
                                                     : 0;
        s.request_query.push_back(oldest +
                                  rng_.UniformU64(newest - oldest + 1));
        s.repeat.push_back(1);
        continue;
      }
      s.request_query.push_back(s.distinct.size());
      s.distinct.push_back(Fresh());
      s.repeat.push_back(0);
    }
    return s;
  }

 private:
  Query Fresh() {
    for (;;) {
      const auto k = static_cast<size_t>(rng_.UniformInt(2, 4));
      std::vector<Query>& pool = pools_[k - 2];
      SKYSR_CHECK_MSG(next_[k - 2] < pool.size(), "query pool exhausted");
      Query q = pool[next_[k - 2]++];
      q.start = hubs_[static_cast<size_t>(zipf_.Sample(rng_))];
      if (seen_.insert(skysr::CanonicalQueryKey(q, QueryOptions())).second) {
        return q;
      }
    }
  }

  Rng rng_;
  skysr::ZipfDistribution zipf_;
  std::vector<skysr::VertexId> hubs_;
  std::vector<Query> pools_[3];
  size_t next_[3] = {0, 0, 0};
  std::unordered_set<std::string> seen_;
};

std::vector<Query> Requests(const Stream& s) {
  std::vector<Query> out;
  out.reserve(s.request_query.size());
  for (size_t q : s.request_query) out.push_back(s.distinct[q]);
  return out;
}

/// The first `n` requests of a stream.
Stream Prefix(const Stream& s, size_t n) {
  Stream out = s;
  out.request_query.resize(std::min(n, s.request_query.size()));
  out.repeat.resize(out.request_query.size());
  return out;
}

struct StreamResult {
  std::vector<double> latency_ms;  // from each request's submission
  std::vector<std::vector<Route>> routes;
  std::vector<char> ok;
  std::vector<double> execute_ms;  // first occurrences only
  std::vector<double> wait_ms;     // latency minus execute, same requests
  WorkCounters work;               // first occurrences only
  double start_s = 0;  // absolute steady-clock stream start
  double wall_s = 0;   // first submission to last completion
};

/// Sends the stream closed-loop with kInFlight requests outstanding,
/// reaping completions and refilling on one client thread. The client
/// spins rather than sleeps: on this VM a sleeping thread's wake-up took up
/// to a millisecond, which showed as latency the service never saw.
StreamResult Drive(QueryService& service, const Stream& s) {
  const size_t n = s.request_query.size();
  StreamResult out;
  out.latency_ms.assign(n, 0);
  out.routes.resize(n);
  out.ok.assign(n, 0);
  std::vector<std::future<skysr::Result<QueryResult>>> futures(n);
  std::vector<double> sent_s(n, 0);
  std::vector<size_t> outstanding;
  double last_done = 0;

  const auto reap = [&] {
    for (size_t j = 0; j < outstanding.size();) {
      const size_t i = outstanding[j];
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      const double done = NowSeconds();
      last_done = std::max(last_done, done);
      out.latency_ms[i] = (done - sent_s[i]) * 1e3;
      auto r = futures[i].get();
      if (r.ok() && !r->stats.timed_out) {
        out.ok[i] = 1;
        if (!s.repeat[i]) {
          out.execute_ms.push_back(r->stats.elapsed_ms);
          out.wait_ms.push_back(out.latency_ms[i] - r->stats.elapsed_ms);
          out.work.Add(r->stats);
        }
        out.routes[i] = std::move(r->routes);
      }
      outstanding[j] = outstanding.back();
      outstanding.pop_back();
    }
  };

  out.start_s = NowSeconds();
  size_t next = 0;
  const auto refill = [&] {
    while (next < n && outstanding.size() < kInFlight) {
      sent_s[next] = NowSeconds();
      futures[next] = service.Submit(s.distinct[s.request_query[next]]);
      outstanding.push_back(next++);
    }
  };
  refill();
  while (!outstanding.empty()) {
    reap();
    refill();
  }
  out.wall_s = last_done - out.start_s;
  return out;
}

/// Restricts the calling thread to CPUs [first, first + count); count 0
/// lifts the restriction. Threads inherit their creator's CPUs, so the
/// service is started while the client thread holds the worker CPUs and the
/// client then moves to the last one: a spinning client sharing a CPU with
/// a woken worker delays that worker until the scheduler preempts it.
/// Machines with too few CPUs keep the default placement.
void PinCurrentThread(int first, int count) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < kWorkers + 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (count == 0) count = cpus;
  for (int c = first; c < first + count && c < cpus; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

ServiceConfig MakeConfig(const Indexed& setup, bool tracing) {
  ServiceConfig config;
  config.num_threads = kWorkers;
  config.oracle = setup.ch.get();
  config.buckets = setup.buckets.get();
  config.enable_tracing = tracing;
  config.trace_capacity = kTraceCapacity;
  return config;
}

/// Starts a service on the worker CPUs and moves the calling (client)
/// thread to its own CPU.
std::unique_ptr<QueryService> StartService(const Indexed& setup,
                                           bool tracing) {
  PinCurrentThread(0, kWorkers);
  auto service = std::make_unique<QueryService>(
      setup.dataset->graph, setup.dataset->forest, MakeConfig(setup, tracing));
  PinCurrentThread(kWorkers, 1);
  return service;
}

/// Per-request phase self times of the traced stream, from the workers'
/// exported trace: each request is an `execute` span plus the `queue_wait`
/// recorded just before it on the same worker track.
struct TracedRequests {
  std::vector<double> latency_ms;  // queue wait + execute
  std::vector<PhaseSelfMs> phases;
  bool parsed = true;
  int64_t wrapped_tracks = 0;  // tracks whose ring lost timed-window events
};

TracedRequests AnalyzeServiceTrace(const std::string& json,
                                   double window_start_s) {
  TracedRequests out;
  std::vector<Span> spans;
  out.parsed = ParseChromeTrace(json, &spans);
  NestSpans(&spans);
  const auto window_ns = static_cast<int64_t>(window_start_s * 1e9);
  const auto exec = static_cast<int>(skysr::TracePhase::kExecute);
  const auto wait = static_cast<int>(skysr::TracePhase::kQueueWait);

  std::unordered_map<int, int64_t> first_start;  // per track
  std::unordered_map<int, size_t> request_of_root;
  std::vector<std::pair<int, int64_t>> exec_key;  // (tid, start)
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, inserted] = first_start.emplace(s.tid, s.start_ns);
    if (!inserted) it->second = std::min(it->second, s.start_ns);
    if (s.parent == -1 && s.phase == exec && s.start_ns >= window_ns) {
      request_of_root[static_cast<int>(i)] = out.phases.size();
      out.phases.push_back(PhaseSelfMs{});
      out.latency_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                               1e6);
      exec_key.emplace_back(s.tid, s.start_ns);
    }
  }
  for (const auto& [tid, start] : first_start) {
    if (start >= window_ns) ++out.wrapped_tracks;
  }
  for (const Span& s : spans) {
    const auto it = request_of_root.find(s.root);
    if (it == request_of_root.end()) continue;
    out.phases[it->second][static_cast<size_t>(s.phase)] +=
        static_cast<double>(s.self_ns) / 1e6;
  }
  // A queue wait ends when its worker picks the task up, immediately
  // before that task's execute span starts on the same track.
  constexpr int64_t kPickupSlackNs = 1000000;
  for (const Span& s : spans) {
    if (s.phase != wait) continue;
    // exec_key is in (tid, start) order, as NestSpans sorted the spans.
    const auto lo = std::lower_bound(
        exec_key.begin(), exec_key.end(), std::make_pair(s.tid, s.end_ns - 2));
    if (lo == exec_key.end() || lo->first != s.tid ||
        lo->second - s.end_ns > kPickupSlackNs) {
      continue;
    }
    const auto r = static_cast<size_t>(lo - exec_key.begin());
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    out.phases[r][static_cast<size_t>(wait)] += ms;
    out.latency_ms[r] += ms;
  }
  return out;
}

int64_t CountFailures(const StreamResult& run, const Stream& s,
                      const ReferenceAnswers& ref) {
  int64_t failed = 0;
  for (size_t i = 0; i < run.ok.size(); ++i) {
    const size_t q = s.request_query[i];
    if (!run.ok[i] || !ref.ok[q] || !SameSkyline(run.routes[i], ref.routes[q])) {
      if (failed < 5) Log("serve_city: request %zu does not match", i);
      ++failed;
    }
  }
  return failed;
}

/// Work counters of one engine set up like a service worker running the
/// distinct queries of `timed` in send order, after those of `warm`.
/// Unlike the service's own counters, which depend on how requests spread
/// over workers, these repeat exactly for a seed.
WorkCounters SequentialReplay(const Indexed& setup, const Stream& warm,
                              const Stream& timed) {
  const Dataset& ds = *setup.dataset;
  skysr::BssrEngine engine(ds.graph, ds.forest, setup.ch.get(),
                           setup.buckets.get());
  skysr::SharedQueryCache xcache;
  engine.AttachSharedCache(&xcache);
  const ServiceConfig defaults;
  std::vector<skysr::VertexId> sources;
  for (int64_t p = 0; p < ds.graph.num_pois() &&
                      sources.size() < defaults.xcache_prewarm_pois;
       ++p) {
    sources.push_back(ds.graph.VertexOfPoi(static_cast<skysr::PoiId>(p)));
  }
  xcache.SetSnapshot(std::make_shared<const skysr::FwdSnapshot>(
      skysr::BuildFwdSnapshot(*setup.buckets, sources,
                              skysr::WarmStateChecksum(ds.graph,
                                                       setup.ch.get()))));
  for (const Query& q : warm.distinct) (void)engine.Run(q);
  WorkCounters work;
  for (size_t i = 0; i < timed.request_query.size(); ++i) {
    if (timed.repeat[i]) continue;
    const auto r = engine.Run(timed.distinct[timed.request_query[i]]);
    if (r.ok()) work.Add(r->stats);
  }
  return work;
}

}  // namespace

void RunServeCity(const RunArgs& args, Report* report) {
  // Set-up: dataset, index, buckets and service start with its prewarm
  // snapshot, repeated for a median; the last one serves the run.
  std::vector<double> gen, ch, bucket, start, total;
  std::unique_ptr<Indexed> setup;
  std::unique_ptr<QueryService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    setup.reset();
    setup = std::make_unique<Indexed>(
        BuildIndexed([] { return skysr::MakeDataset(CitySpec(0.1)); }));
    const double t0 = NowSeconds();
    service = StartService(*setup, /*tracing=*/false);
    start.push_back(NowSeconds() - t0);
    if (rep + 1 < kSetupReps) PinCurrentThread(0, 0);
    gen.push_back(setup->gen_s);
    ch.push_back(setup->ch_s);
    bucket.push_back(setup->bucket_s);
    total.push_back(setup->gen_s + setup->ch_s + setup->bucket_s +
                    start.back());
  }
  Log("serve_city set-up (median of %d): gen %.3f s, ch %.3f s, buckets "
      "%.3f s, service start %.3f s, total %.3f s",
      kSetupReps, Median(gen), Median(ch), Median(bucket), Median(start),
      Median(total));
  const Dataset& ds = *setup->dataset;

  StreamMaker maker(ds, args.seed);
  const Stream warm = maker.Make(kWarmupSeconds);
  const Stream timed = maker.Make(args.seconds);

  (void)Drive(*service, warm);
  const MetricsSnapshot before = service->Metrics();
  const StreamResult run = Drive(*service, timed);
  const MetricsSnapshot after = service->Metrics();
  const double rss_mb = PeakRssMb();
  service->Shutdown();
  PinCurrentThread(0, 0);

  const size_t n = timed.request_query.size();
  const double qps = static_cast<double>(n) / run.wall_s;
  Log("serve_city: %zu requests (%zu distinct) in %.3f s, %.1f qps, p50 "
      "%.3f ms, p99 %.3f ms",
      n, timed.distinct.size(), run.wall_s, qps,
      Percentile(run.latency_ms, 0.50), Percentile(run.latency_ms, 0.99));
  report->Add("qps", qps);
  report->Add("lat_p50_ms", Percentile(run.latency_ms, 0.50));
  report->Add("lat_p99_ms", Percentile(run.latency_ms, 0.99));
  report->Add("setup_s", Median(total));
  report->Add("rss_peak_mb", rss_mb);

  const double ref_start = NowSeconds();
  const ReferenceAnswers ref =
      ComputeReferences(ds.graph, ds.forest, timed.distinct, kReferenceThreads);
  Log("serve_city: reference answers in %.2f s", NowSeconds() - ref_start);
  report->attempted += static_cast<int64_t>(n);
  report->failed += CountFailures(run, timed, ref);

  const int64_t cache_hits = after.cache_hits - before.cache_hits;
  const int64_t cache_misses = after.cache_misses - before.cache_misses;
  const int64_t reuses =
      after.xcache_resume_reuses - before.xcache_resume_reuses;
  if (reuses <= 0) report->Fail("serve_city: no resumable-slot reuses");
  if (cache_hits <= 0) report->Fail("serve_city: no result-cache hits");
  if (after.errors != before.errors || after.rejected != before.rejected) {
    report->Fail("serve_city: the service reported errors or rejections");
  }
  PrintTraffic("serve_city", ds, Requests(timed), ref.deferred,
               Share(timed.repeat), "closed loop, 6 in flight over 3 workers");
  Log("serve_city: result-cache hits %lld, misses %lld, resume reuses %lld",
      static_cast<long long>(cache_hits), static_cast<long long>(cache_misses),
      static_cast<long long>(reuses));

  if (!args.trace) return;

  service.reset();
  std::unique_ptr<QueryService> traced_service =
      StartService(*setup, /*tracing=*/true);
  const Stream traced_stream = Prefix(timed, kTracedRequests);
  (void)Drive(*traced_service, warm);
  const StreamResult traced = Drive(*traced_service, traced_stream);
  traced_service->Shutdown();
  PinCurrentThread(0, 0);
  report->attempted += static_cast<int64_t>(traced_stream.request_query.size());
  report->failed += CountFailures(traced, traced_stream, ref);
  const TracedRequests requests =
      AnalyzeServiceTrace(traced_service->WorkerTracesToJson(), traced.start_s);
  if (!requests.parsed) report->Fail("malformed exported trace");
  if (requests.wrapped_tracks > 0) {
    report->Fail("serve_city: a worker trace ring wrapped inside the window");
  }
  Log("serve_city: %zu traced requests", requests.phases.size());

  const WorkCounters replay = SequentialReplay(*setup, warm, traced_stream);
  Log("serve_city: replay work %s", replay.ToString().c_str());

  report->Add("workload.gen_s", Median(gen));
  report->Add("workload.timed_queries", static_cast<double>(n));
  report->Add("workload.deferred_share", Share(ref.deferred));
  report->Add("index.ch_build_s", Median(ch));
  report->Add("retrieval.bucket_build_s", Median(bucket));
  report->Add("service.start_s", Median(start));
  AddWorkMetrics(report, replay);
  skysr::SharedCacheCounters xc;
  xc.fwd_hits = after.xcache_fwd_hits - before.xcache_fwd_hits;
  xc.fwd_misses = after.xcache_fwd_misses - before.xcache_fwd_misses;
  xc.resume_reuses = reuses;
  AddCacheMetrics(report, xc, run.work.resume_runs,
                  after.xcache_resident_bytes);
  AddEnginePhaseMetrics(report, LatencyCohorts(requests.latency_ms),
                        requests.phases);
  double queue_wait = 0, lookup = 0;
  for (const PhaseSelfMs& p : requests.phases) {
    queue_wait += p[static_cast<size_t>(skysr::TracePhase::kQueueWait)];
    lookup += p[static_cast<size_t>(skysr::TracePhase::kCacheLookup)];
  }
  const double traced_n =
      std::max<double>(1, static_cast<double>(requests.phases.size()));
  report->Add("service.queue_wait_ms", queue_wait / traced_n);
  report->Add("service.cache_lookup_ms", lookup / traced_n);
  report->Add("service.execute_ms.p50", Percentile(run.execute_ms, 0.50));
  report->Add("service.execute_ms.p99", Percentile(run.execute_ms, 0.99));
  report->Add("service.wait_ms.p50", Percentile(run.wait_ms, 0.50));
  report->Add("service.wait_ms.p99", Percentile(run.wait_ms, 0.99));
  report->Add("service.result_cache_hit_rate",
              cache_hits + cache_misses > 0
                  ? static_cast<double>(cache_hits) /
                        static_cast<double>(cache_hits + cache_misses)
                  : 0.0);
  report->Add("service.rejected",
              static_cast<double>(after.rejected - before.rejected));
  report->Add("service.errors",
              static_cast<double>(after.errors - before.errors));
  report->Add("obs.trace_dropped", static_cast<double>(requests.wrapped_tracks));
  report->Add("client.in_flight", static_cast<double>(kInFlight));
}

}  // namespace perfbench
