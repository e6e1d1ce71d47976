// skysr_cli — command-line interface to the SkySR library.
//
//   skysr_cli generate --kind tokyo|nyc|cal --scale 0.02 --out DIR
//       Generates a dataset and writes DIR/graph.bin + DIR/taxonomy.txt.
//
//   skysr_cli gen --family grid|cluster|smallworld [--vertices N] [--pois P]
//             [--trees T] [--fanout F] [--levels L] [--multicat R]
//             [--queries N] [--min-seq A] [--max-seq B] [--complex]
//             [--seed S] --out DIR
//       Scenario generator: builds a synthetic (graph family, random
//       taxonomy, workload mix) instance and writes DIR/graph.bin,
//       DIR/taxonomy.txt and DIR/workload.txt. Fully deterministic per
//       seed; --complex adds any_of/all_of/none_of predicate mixes and
//       destinations to the workload. Replay with `skysr_cli batch --data
//       DIR --queries DIR/workload.txt`.
//
//   skysr_cli info --data DIR
//       Prints dataset statistics.
//
//   skysr_cli index build --data DIR [--out FILE] [--no-buckets]
//       Preprocesses the dataset's graph into a contraction-hierarchies
//       distance-oracle index and saves it (default DIR/index.chidx). It
//       additionally builds the category-bucket tables of the PoI
//       retrieval subsystem and saves them alongside (DIR/index.cbkt;
//       --no-buckets skips). Index files embed checksums of the graph (and,
//       for buckets, the PoI assignment and the CH build); loading against
//       any other dataset is rejected.
//
//   skysr_cli index stats --data DIR --index FILE [--buckets FILE]
//       Loads a saved index (verifying the checksums) and prints its
//       statistics, including the bucket tables when given.
//
//   skysr_cli query --data DIR --start V --categories "A;B;C"
//             [--dest V] [--no-init] [--no-lb] [--no-cache]
//             [--queue distance] [--budget SECONDS]
//             [--oracle flat|ch] [--index FILE]
//             [--retriever auto|settle|bucket] [--buckets FILE|build]
//             [--trace-out FILE] [--trace-capacity N]
//             [--explain] [--explain-out FILE]
//       Runs one SkySR query (category names as in taxonomy.txt) and prints
//       the skyline plus search statistics. --oracle ch builds (or --index
//       loads) the contraction-hierarchies index; it speeds up the query
//       only together with --buckets, which loads (or builds) the category
//       bucket tables that NNinit hops, lower-bound legs and expansions
//       read. --retriever picks how much of the query the tables answer.
//       --trace-out records per-phase spans and writes Chrome trace-event
//       JSON (loadable in chrome://tracing or https://ui.perfetto.dev) plus
//       a per-phase breakdown to stdout. --explain prints the query's
//       decision-attribution tree (retriever choice per position, cache
//       layers, per-pruner candidate shares); --explain-out (implies
//       --explain) writes the same record as JSON.
//
//   skysr_cli workload --data DIR --size K --count N [--seed S] [--out FILE]
//       Generates N random queries of size K and reports aggregate timing;
//       with --out, also writes the batch to a replayable workload file.
//
//   skysr_cli batch --data DIR --queries FILE [--threads N] [--repeat R]
//             [--cache N] [--queue N] [--oracle flat|ch] [--index FILE]
//             [--retriever auto|settle|bucket] [--buckets FILE|build]
//             [--xcache on|off] [--prewarm N] [--slow-queries N]
//             [--arrival asap|poisson:<qps>|burst:<size>:<gap_ms>]
//             [--stats-interval SEC] [--metrics-out FILE] [--metrics-port P]
//             [--trace] [--trace-out FILE]
//       (alias: serve) Replays a workload file through the concurrent
//       QueryService with N worker threads and prints service metrics
//       (QPS, latency percentiles, cache hit rate, cross-query cache
//       activity, and the N slowest queries with their phase breakdowns).
//       With --oracle/--index all workers share one immutable CH index,
//       and with --buckets one immutable set of category-bucket tables.
//       --xcache (default on) toggles the engine-lifetime cross-query
//       caches; --prewarm bounds the PoI vertices snapshotted
//       before the workers start (default 256). Results are bit-identical
//       with the cache on or off.
//       --arrival paces the replay open-loop (asap floods, poisson:<qps>
//       draws exponential gaps, burst:<size>:<gap_ms> sends bursts) so
//       queue depth reflects an offered load rather than lock-step batches.
//       Observability: --stats-interval prints a one-line progress summary
//       every SEC seconds while the replay runs; --metrics-out writes the
//       final metrics in Prometheus text format; --metrics-port serves the
//       exposition live on 127.0.0.1:P/metrics for the run's duration,
//       along with a self-refreshing HTML dashboard on /debug (QPS/latency
//       sparklines, slow queries with inline explains) and liveness
//       probes on /healthz and /readyz;
//       --trace enables per-worker phase tracing and --trace-out (implies
//       --trace) writes the merged worker timelines as Chrome trace JSON.
//       --explain runs every query with decision attribution enabled;
//       --explain-out FILE (implies --explain) writes the slowest queries'
//       explain records as a JSON array after the replay.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/explain.h"
#include "obs/trace_export.h"
#include "service/debug_page.h"
#include "service/metrics_endpoint.h"
#include "skysr.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace skysr {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: skysr_cli <generate|gen|info|index|query|workload|batch> "
      "[flags]\n"
      "run with a command and no flags for its flag list\n");
  return 2;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "true";
    }
  }
  return flags;
}

Result<Dataset> LoadDataDir(const std::string& dir) {
  SKYSR_ASSIGN_OR_RETURN(Graph graph, Graph::LoadBinary(dir + "/graph.bin"));
  SKYSR_ASSIGN_OR_RETURN(CategoryForest forest,
                         LoadForestFile(dir + "/taxonomy.txt"));
  // The snapshot's category ids index the taxonomy; an id the taxonomy
  // does not define means the two files do not belong together.
  for (PoiId p = 0; p < graph.num_pois(); ++p) {
    for (const CategoryId c : graph.PoiCategories(p)) {
      if (!forest.Valid(c)) {
        return Status::IOError(dir + "/graph.bin names category " +
                               std::to_string(c) +
                               ", which taxonomy.txt does not define");
      }
    }
  }
  Dataset ds;
  ds.name = dir;
  ds.graph = std::move(graph);
  ds.forest = std::move(forest);
  return ds;
}

/// Resolves --oracle/--index into a ready CH index over `graph` (null for
/// the default flat behavior): --index loads a saved file
/// (checksum-verified), --oracle ch builds the index in memory.
Result<std::unique_ptr<ChOracle>> ResolveOracle(
    const std::map<std::string, std::string>& flags, const Graph& graph) {
  // The name was validated by CheckBackendFlags.
  const OracleKind kind = flags.count("oracle")
                              ? *ParseOracleKind(flags.at("oracle"))
                              : OracleKind::kFlat;
  if (flags.count("index")) {
    if (flags.count("oracle") && kind != OracleKind::kCh) {
      return Status::InvalidArgument(
          "--index holds a ch oracle but --oracle asked for " +
          flags.at("oracle"));
    }
    WallTimer timer;
    SKYSR_ASSIGN_OR_RETURN(std::unique_ptr<ChOracle> oracle,
                           LoadOracleIndex(flags.at("index"), graph));
    std::printf("loaded ch oracle from %s in %.1f ms (%.2f MiB)\n",
                flags.at("index").c_str(), timer.ElapsedMillis(),
                static_cast<double>(oracle->MemoryBytes()) / (1 << 20));
    return oracle;
  }
  if (kind == OracleKind::kFlat) return std::unique_ptr<ChOracle>();
  WallTimer timer;
  auto oracle = std::make_unique<ChOracle>(ChOracle::Build(graph));
  std::printf("built ch oracle in %.1f ms (%.2f MiB)\n",
              timer.ElapsedMillis(),
              static_cast<double>(oracle->MemoryBytes()) / (1 << 20));
  return oracle;
}

/// Resolves --buckets into category-bucket tables over `graph` bound to
/// `oracle` (nullopt when the flag is absent): a path loads a saved .cbkt
/// (checksum-verified), the literal "build" builds the tables in memory.
/// Requires a CH oracle either way.
Result<std::optional<CategoryBucketIndex>> ResolveBuckets(
    const std::map<std::string, std::string>& flags, const Graph& graph,
    const ChOracle* oracle) {
  if (!flags.count("buckets")) {
    return std::optional<CategoryBucketIndex>();
  }
  if (oracle == nullptr) {
    return Status::InvalidArgument(
        "--buckets needs a contraction-hierarchies oracle (--oracle ch or a "
        ".chidx --index)");
  }
  const ChOracle& ch = *oracle;
  WallTimer timer;
  if (flags.at("buckets") == "build") {
    std::optional<CategoryBucketIndex> built(
        CategoryBucketIndex::Build(graph, ch));
    std::printf("built bucket tables in %.1f ms (%.2f MiB, %lld settles)\n",
                timer.ElapsedMillis(),
                static_cast<double>(built->MemoryBytes()) / (1 << 20),
                static_cast<long long>(built->num_settles()));
    return built;
  }
  SKYSR_ASSIGN_OR_RETURN(CategoryBucketIndex loaded,
                         LoadBucketIndex(flags.at("buckets"), graph, ch));
  std::printf("loaded bucket tables from %s in %.1f ms (%.2f MiB)\n",
              flags.at("buckets").c_str(), timer.ElapsedMillis(),
              static_cast<double>(loaded.MemoryBytes()) / (1 << 20));
  return std::optional<CategoryBucketIndex>(std::move(loaded));
}

/// Validates the --oracle and --retriever names before any work starts;
/// false (with the allowed values) on an unknown one.
bool CheckBackendFlags(const std::map<std::string, std::string>& flags) {
  if (flags.count("oracle") && !ParseOracleKind(flags.at("oracle"))) {
    std::fprintf(stderr, "unknown --oracle %s (flat|ch)\n",
                 flags.at("oracle").c_str());
    return false;
  }
  if (flags.count("retriever") &&
      !ParseRetrieverKind(flags.at("retriever"))) {
    std::fprintf(stderr, "unknown --retriever %s (auto|settle|bucket)\n",
                 flags.at("retriever").c_str());
    return false;
  }
  return true;
}

/// Applies --retriever (validated by CheckBackendFlags) to query options.
void ApplyRetrieverFlag(const std::map<std::string, std::string>& flags,
                        QueryOptions* opts) {
  if (flags.count("retriever")) {
    opts->retriever = *ParseRetrieverKind(flags.at("retriever"));
  }
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Prints a one-line service summary every `interval_s` seconds until
/// stopped (the --stats-interval ticker). Stop() wakes the thread
/// immediately, so shutdown never waits out a tick.
class StatsTicker {
 public:
  StatsTicker(const QueryService& service, double interval_s)
      : service_(service), interval_s_(interval_s) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~StatsTicker() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      const auto wait = std::chrono::duration<double>(interval_s_);
      if (cv_.wait_for(lock, wait, [this] { return stopped_; })) break;
      lock.unlock();
      const MetricsSnapshot m = service_.Metrics();
      std::printf("[stats] t=%.1fs completed=%lld qps=%.1f p50=%.2fms "
                  "p99=%.2fms cache=%.0f%% errors=%lld\n",
                  m.uptime_seconds, static_cast<long long>(m.completed),
                  m.qps, m.latency_p50_ms, m.latency_p99_ms,
                  m.cache_hit_rate * 100.0,
                  static_cast<long long>(m.errors));
      std::fflush(stdout);
      lock.lock();
    }
  }

  const QueryService& service_;
  const double interval_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

void PrintBucketStats(const CategoryBucketIndex& buckets) {
  std::printf("bucket tables: %lld settles over %zu categories, %.2f MiB "
              "(built in %.1f ms)\n",
              static_cast<long long>(buckets.num_settles()),
              buckets.categories().size(),
              static_cast<double>(buckets.MemoryBytes()) / (1 << 20),
              buckets.build_stats().build_ms);
}

void PrintOracleStats(const ChOracle& ch) {
  std::printf("oracle kind: %s\n", OracleKindName(OracleKind::kCh));
  std::printf("memory: %.2f MiB\n",
              static_cast<double>(ch.MemoryBytes()) / (1 << 20));
  std::printf("shortcuts: %lld\nupward edges: %lld\n",
              static_cast<long long>(ch.num_shortcuts()),
              static_cast<long long>(ch.num_upward_edges()));
}

int CmdIndex(int argc, char** argv,
             const std::map<std::string, std::string>& flags) {
  const std::string sub = argc > 2 ? argv[2] : "";
  if (sub != "build" && sub != "stats") {
    std::fprintf(stderr,
                 "usage: skysr_cli index build --data DIR [--out FILE] "
                 "[--no-buckets]\n"
                 "       skysr_cli index stats --data DIR --index FILE\n");
    return 2;
  }
  if (!flags.count("data")) {
    std::fprintf(stderr, "index %s needs --data DIR\n", sub.c_str());
    return 2;
  }
  auto ds = LoadDataDir(flags.at("data"));
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }

  if (sub == "stats") {
    if (!flags.count("index")) {
      std::fprintf(stderr, "index stats needs --index FILE\n");
      return 2;
    }
    auto oracle = LoadOracleIndex(flags.at("index"), ds->graph);
    if (!oracle.ok()) {
      std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
      return 1;
    }
    std::printf("index file: %s\n", flags.at("index").c_str());
    std::printf("graph checksum: %016llx (verified)\n",
                static_cast<unsigned long long>(GraphChecksum(ds->graph)));
    PrintOracleStats(**oracle);
    if (flags.count("buckets")) {
      auto buckets = ResolveBuckets(flags, ds->graph, oracle->get());
      if (!buckets.ok()) {
        std::fprintf(stderr, "%s\n", buckets.status().ToString().c_str());
        return 1;
      }
      std::printf("bucket file: %s\n", flags.at("buckets").c_str());
      std::printf("assignment checksum: %016llx (verified)\n",
                  static_cast<unsigned long long>(
                      PoiAssignmentChecksum(ds->graph)));
      PrintBucketStats(**buckets);
    }
    return 0;
  }

  if (flags.count("oracle") && flags.at("oracle") != "ch") {
    std::fprintf(stderr, "index build builds a CH index only (--oracle ch)\n");
    return 2;
  }
  WallTimer timer;
  const ChOracle oracle = ChOracle::Build(ds->graph);
  const double build_ms = timer.ElapsedMillis();
  const std::string out =
      flags.count("out") ? flags.at("out")
                         : flags.at("data") + "/index." +
                               kOracleIndexExtension;
  if (Status st = SaveOracleIndex(oracle, out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("built ch index in %.1f ms, wrote %s\n", build_ms,
              out.c_str());
  PrintOracleStats(oracle);

  // The PoI-retrieval bucket tables are persisted alongside the .chidx
  // (same dataset binding, plus assignment + CH checksums).
  if (!flags.count("no-buckets")) {
    const CategoryBucketIndex buckets =
        CategoryBucketIndex::Build(ds->graph, oracle);
    const std::string bucket_out =
        flags.count("out")
            ? flags.at("out") + "." + BucketIndexExtension()
            : flags.at("data") + "/index." + BucketIndexExtension();
    if (Status st = SaveBucketIndex(buckets, bucket_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", bucket_out.c_str());
    PrintBucketStats(buckets);
  }
  return 0;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string kind =
      flags.count("kind") ? flags.at("kind") : std::string("cal");
  const double scale =
      flags.count("scale") ? std::atof(flags.at("scale").c_str()) : 0.05;
  const std::string out =
      flags.count("out") ? flags.at("out") : std::string("skysr_data");

  DatasetSpec spec;
  if (kind == "tokyo") {
    spec = TokyoLikeSpec(scale);
  } else if (kind == "nyc") {
    spec = NycLikeSpec(scale);
  } else if (kind == "cal") {
    spec = CalLikeSpec(scale);
  } else {
    std::fprintf(stderr, "unknown --kind %s (tokyo|nyc|cal)\n", kind.c_str());
    return 2;
  }
  if (flags.count("seed")) {
    spec.seed = static_cast<uint64_t>(std::atoll(flags.at("seed").c_str()));
  }

  std::printf("generating %s (scale %.4f)...\n", spec.name.c_str(), scale);
  const Dataset ds = MakeDataset(spec);
  (void)std::system(("mkdir -p " + out).c_str());
  if (Status st = ds.graph.SaveBinary(out + "/graph.bin"); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::ofstream(out + "/taxonomy.txt") << ForestToText(ds.forest);
  std::printf("wrote %s/graph.bin (|V|=%lld |P|=%lld |E|=%lld) and "
              "%s/taxonomy.txt (%lld categories)\n",
              out.c_str(), static_cast<long long>(ds.graph.num_vertices()),
              static_cast<long long>(ds.graph.num_pois()),
              static_cast<long long>(ds.graph.num_edges()), out.c_str(),
              static_cast<long long>(ds.forest.num_categories()));
  return 0;
}

int CmdGen(const std::map<std::string, std::string>& flags) {
  const auto intflag = [&](const char* name, int64_t def) {
    return flags.count(name) ? std::atoll(flags.at(name).c_str()) : def;
  };
  const std::string family_name =
      flags.count("family") ? flags.at("family") : std::string("grid");
  const auto family = ParseGraphFamily(family_name);
  if (!family) {
    std::fprintf(stderr, "unknown --family %s (grid|cluster|smallworld)\n",
                 family_name.c_str());
    return 2;
  }
  const std::string out =
      flags.count("out") ? flags.at("out") : std::string("scenario_data");
  const auto seed = static_cast<uint64_t>(intflag("seed", 42));

  ScenarioSpec spec;
  spec.name = family_name + "-cli";
  spec.graph.family = *family;
  spec.graph.target_vertices = intflag("vertices", 2000);
  spec.taxonomy.num_trees = static_cast<int>(intflag("trees", 5));
  spec.taxonomy.max_fanout = static_cast<int>(intflag("fanout", 3));
  spec.taxonomy.max_levels = static_cast<int>(intflag("levels", 3));
  spec.pois.num_pois = intflag("pois", spec.graph.target_vertices / 4);
  if (flags.count("multicat")) {
    spec.pois.multi_category_rate = std::atof(flags.at("multicat").c_str());
  }
  spec.workload.num_queries = static_cast<int>(intflag("queries", 50));
  spec.workload.min_sequence = static_cast<int>(intflag("min-seq", 2));
  spec.workload.max_sequence = static_cast<int>(intflag("max-seq", 3));
  if (flags.count("complex")) {
    spec.workload.multi_any_rate = 0.3;
    spec.workload.all_of_rate = 0.25;
    spec.workload.none_of_rate = 0.25;
    spec.workload.destination_rate = 0.25;
  }
  SeedScenarioSpec(&spec, seed);

  std::printf("generating %s scenario (|V|~%lld, |P|=%lld, seed %llu)...\n",
              family_name.c_str(),
              static_cast<long long>(spec.graph.target_vertices),
              static_cast<long long>(spec.pois.num_pois),
              static_cast<unsigned long long>(seed));
  const Scenario sc = MakeScenario(spec);
  (void)std::system(("mkdir -p " + out).c_str());
  if (Status st = sc.dataset.graph.SaveBinary(out + "/graph.bin"); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::ofstream(out + "/taxonomy.txt") << ForestToText(sc.dataset.forest);
  if (Status st = WriteWorkloadFile(out + "/workload.txt", sc.dataset,
                                    sc.queries);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s/graph.bin (|V|=%lld |P|=%lld |E|=%lld), %s/taxonomy.txt "
      "(%lld categories in %lld trees), %s/workload.txt (%zu queries)\n",
      out.c_str(), static_cast<long long>(sc.dataset.graph.num_vertices()),
      static_cast<long long>(sc.dataset.graph.num_pois()),
      static_cast<long long>(sc.dataset.graph.num_edges()), out.c_str(),
      static_cast<long long>(sc.dataset.forest.num_categories()),
      static_cast<long long>(sc.dataset.forest.num_trees()), out.c_str(),
      sc.queries.size());
  std::printf(
      "replay: skysr_cli batch --data %s --queries %s/workload.txt "
      "[--oracle ch]\n",
      out.c_str(), out.c_str());
  return 0;
}

int CmdInfo(const std::map<std::string, std::string>& flags) {
  if (!flags.count("data")) {
    std::fprintf(stderr, "info needs --data DIR\n");
    return 2;
  }
  auto ds = LoadDataDir(flags.at("data"));
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const Graph& g = ds->graph;
  std::printf("vertices: %lld\npois: %lld\nedges: %lld\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_pois()),
              static_cast<long long>(g.num_edges()));
  std::printf("directed: %s\nconnected: %s\ntotal edge weight: %.3f\n",
              g.directed() ? "yes" : "no", g.IsConnected() ? "yes" : "no",
              g.TotalEdgeWeight());
  std::printf("category trees: %lld (%lld categories)\n",
              static_cast<long long>(ds->forest.num_trees()),
              static_cast<long long>(ds->forest.num_categories()));
  // Top-10 categories by PoI count.
  std::map<CategoryId, int64_t> counts;
  for (PoiId p = 0; p < g.num_pois(); ++p) ++counts[g.PoiPrimaryCategory(p)];
  std::vector<std::pair<int64_t, CategoryId>> ranked;
  for (const auto& [c, n] : counts) ranked.emplace_back(n, c);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("top categories:\n");
  for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
    std::printf("  %6lld  %s\n", static_cast<long long>(ranked[i].first),
                ds->forest.Name(ranked[i].second).c_str());
  }
  return 0;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  if (!flags.count("data") || !flags.count("start") ||
      !flags.count("categories")) {
    std::fprintf(stderr,
                 "query needs --data DIR --start V --categories \"A;B;C\"\n");
    return 2;
  }
  if (!CheckBackendFlags(flags)) return 2;
  auto ds = LoadDataDir(flags.at("data"));
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Query q;
  q.start = static_cast<VertexId>(std::atoi(flags.at("start").c_str()));
  for (const auto name : Split(flags.at("categories"), ';')) {
    const CategoryId c = ds->forest.FindByName(Trim(name));
    if (c == kInvalidCategory) {
      std::fprintf(stderr, "unknown category '%.*s'\n",
                   static_cast<int>(name.size()), name.data());
      return 2;
    }
    q.sequence.push_back(CategoryPredicate::Single(c));
  }
  if (flags.count("dest")) {
    q.destination =
        static_cast<VertexId>(std::atoi(flags.at("dest").c_str()));
  }

  QueryOptions opts;
  if (flags.count("no-init")) opts.use_initial_search = false;
  if (flags.count("no-lb")) opts.use_lower_bounds = false;
  if (flags.count("no-cache")) opts.use_cache = false;
  if (flags.count("queue") && flags.at("queue") == "distance") {
    opts.queue_discipline = QueueDiscipline::kDistanceBased;
  }
  if (flags.count("budget")) {
    opts.time_budget_seconds = std::atof(flags.at("budget").c_str());
  }
  if (flags.count("explain") || flags.count("explain-out")) {
    opts.explain = true;
  }

  ApplyRetrieverFlag(flags, &opts);

  auto oracle = ResolveOracle(flags, ds->graph);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  auto buckets = ResolveBuckets(flags, ds->graph, oracle->get());
  if (!buckets.ok()) {
    std::fprintf(stderr, "%s\n", buckets.status().ToString().c_str());
    return 1;
  }
  BssrEngine engine(ds->graph, ds->forest, oracle->get(),
                    buckets->has_value() ? &**buckets : nullptr);
  std::unique_ptr<QueryTrace> trace;
  if (flags.count("trace-out")) {
    const size_t capacity =
        flags.count("trace-capacity")
            ? static_cast<size_t>(std::atoll(flags.at("trace-capacity").c_str()))
            : QueryTrace::kDefaultCapacity;
    trace = std::make_unique<QueryTrace>(capacity);
    trace->set_enabled(true);
    engine.AttachTrace(trace.get());
  }
  auto result = engine.Run(q, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const Route& r : result->routes) {
    std::printf("%s\n", RouteToString(ds->graph, r).c_str());
  }
  std::printf("\n%s\n", result->stats.ToString().c_str());
  if (result->explain != nullptr) {
    std::printf("\n%s", result->explain->ToTreeString().c_str());
    if (flags.count("explain-out")) {
      if (!WriteTextFile(flags.at("explain-out"),
                         result->explain->ToJson() + "\n")) {
        return 1;
      }
      std::printf("\nwrote explain JSON to %s\n",
                  flags.at("explain-out").c_str());
    }
  }
  if (trace != nullptr) {
    const std::string& path = flags.at("trace-out");
    if (!WriteTextFile(path, TraceToChromeJson(*trace))) return 1;
    std::printf("\nwrote %zu trace events to %s (%lld dropped)\n",
                trace->size(), path.c_str(),
                static_cast<long long>(trace->dropped()));
    const std::string breakdown = PhaseBreakdownString(trace->aggregates());
    if (!breakdown.empty()) std::printf("%s", breakdown.c_str());
  }
  return 0;
}

int CmdWorkload(const std::map<std::string, std::string>& flags) {
  if (!flags.count("data")) {
    std::fprintf(stderr, "workload needs --data DIR\n");
    return 2;
  }
  auto ds = LoadDataDir(flags.at("data"));
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  QueryGenParams qp;
  qp.sequence_size =
      flags.count("size") ? std::atoi(flags.at("size").c_str()) : 3;
  qp.count = flags.count("count") ? std::atoi(flags.at("count").c_str()) : 20;
  qp.seed = flags.count("seed")
                ? static_cast<uint64_t>(std::atoll(flags.at("seed").c_str()))
                : 99;
  const auto queries = GenerateQueries(*ds, qp);
  if (flags.count("out")) {
    if (Status st = WriteWorkloadFile(flags.at("out"), *ds, queries);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu queries to %s\n", queries.size(),
                flags.at("out").c_str());
  }

  BssrEngine engine(ds->graph, ds->forest);
  double total_ms = 0, max_ms = 0;
  int64_t total_routes = 0;
  for (const Query& q : queries) {
    WallTimer t;
    auto r = engine.Run(q);
    if (!r.ok()) continue;
    const double ms = t.ElapsedMillis();
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    total_routes += static_cast<int64_t>(r->routes.size());
  }
  std::printf("%d queries of size %d: mean %.2f ms, max %.2f ms, "
              "mean skyline size %.2f\n",
              qp.count, qp.sequence_size, total_ms / qp.count, max_ms,
              static_cast<double>(total_routes) / qp.count);
  return 0;
}

/// Client-side pacing for the `--arrival` replay modes. Parses
/// "asap", "poisson:<qps>", or "burst:<size>:<gap_ms>"; WaitForSlot(i)
/// then blocks until submission i should leave the client. Poisson gaps
/// come from a fixed-seed draw, so repeated runs offer the same trace.
class ArrivalPacer {
 public:
  explicit ArrivalPacer(const std::string& spec) : rng_(42) {
    if (spec == "asap") {
      kind_ = Kind::kAsap;
    } else if (spec.rfind("poisson:", 0) == 0) {
      kind_ = Kind::kPoisson;
      qps_ = std::atof(spec.c_str() + 8);
      ok_ = qps_ > 0;
    } else if (spec.rfind("burst:", 0) == 0) {
      kind_ = Kind::kBurst;
      const char* p = spec.c_str() + 6;
      burst_size_ = std::atoi(p);
      ok_ = burst_size_ > 0;
      if (const char* colon = std::strchr(p, ':'); colon != nullptr) {
        gap_ms_ = std::atof(colon + 1);
      }
    } else {
      ok_ = false;
    }
  }

  bool ok() const { return ok_; }

  void WaitForSlot(int index) {
    switch (kind_) {
      case Kind::kAsap:
        return;
      case Kind::kPoisson: {
        std::exponential_distribution<double> gap(qps_);
        next_s_ += gap(rng_);
        SleepUntil(next_s_);
        return;
      }
      case Kind::kBurst:
        if (index > 0 && index % burst_size_ == 0) {
          next_s_ += gap_ms_ / 1000.0;
          SleepUntil(next_s_);
        }
        return;
    }
  }

 private:
  enum class Kind { kAsap, kPoisson, kBurst };

  void SleepUntil(double offset_s) {
    const double remaining = offset_s - timer_.ElapsedSeconds();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
  }

  Kind kind_ = Kind::kAsap;
  bool ok_ = true;
  double qps_ = 0;
  int burst_size_ = 1;
  double gap_ms_ = 0;
  std::mt19937_64 rng_;
  WallTimer timer_;
  double next_s_ = 0;
};

int CmdBatch(const std::map<std::string, std::string>& flags) {
  if (!flags.count("data") || !flags.count("queries")) {
    std::fprintf(stderr,
                 "batch needs --data DIR --queries FILE [--threads N] "
                 "[--repeat R] [--cache N] [--queue N] [--xcache on|off] "
                 "[--prewarm N] [--slow-queries N] [--arrival SPEC] "
                 "[--stats-interval SEC] [--metrics-out FILE] "
                 "[--metrics-port P] [--trace] [--trace-out FILE]\n");
    return 2;
  }
  if (!CheckBackendFlags(flags)) return 2;
  auto ds = LoadDataDir(flags.at("data"));
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto queries = LoadWorkloadFile(flags.at("queries"), *ds);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  ServiceConfig cfg;
  cfg.num_threads =
      flags.count("threads") ? std::atoi(flags.at("threads").c_str()) : 0;
  if (flags.count("cache")) {
    cfg.cache_capacity =
        static_cast<size_t>(std::atoll(flags.at("cache").c_str()));
  }
  if (flags.count("queue")) {
    cfg.queue_capacity =
        static_cast<size_t>(std::atoll(flags.at("queue").c_str()));
  }
  const int repeat =
      flags.count("repeat") ? std::atoi(flags.at("repeat").c_str()) : 1;
  if (flags.count("xcache")) {
    const std::string& v = flags.at("xcache");
    cfg.shared_query_cache = v != "off" && v != "0";
  }
  if (flags.count("prewarm")) {
    cfg.xcache_prewarm_pois =
        static_cast<size_t>(std::atoll(flags.at("prewarm").c_str()));
  }
  if (flags.count("slow-queries")) {
    cfg.slow_query_log_capacity =
        static_cast<size_t>(std::atoll(flags.at("slow-queries").c_str()));
  }
  if (flags.count("trace") || flags.count("trace-out")) {
    cfg.enable_tracing = true;
    if (flags.count("trace-capacity")) {
      cfg.trace_capacity =
          static_cast<size_t>(std::atoll(flags.at("trace-capacity").c_str()));
    }
  }
  if (flags.count("explain") || flags.count("explain-out")) {
    cfg.default_options.explain = true;
  }

  ApplyRetrieverFlag(flags, &cfg.default_options);

  auto oracle = ResolveOracle(flags, ds->graph);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  cfg.oracle = oracle->get();
  auto buckets = ResolveBuckets(flags, ds->graph, oracle->get());
  if (!buckets.ok()) {
    std::fprintf(stderr, "%s\n", buckets.status().ToString().c_str());
    return 1;
  }
  if (buckets->has_value()) cfg.buckets = &**buckets;

  QueryService service(ds->graph, ds->forest, cfg);

  MetricsHistory debug_history;
  std::unique_ptr<MetricsEndpoint> endpoint;
  if (flags.count("metrics-port")) {
    endpoint = std::make_unique<MetricsEndpoint>(
        std::atoi(flags.at("metrics-port").c_str()),
        [&service] { return service.MetricsToPrometheus(); });
    endpoint->AddRoute("/debug", "text/html",
                       [&service, &debug_history] {
                         MetricsSnapshot s = service.Metrics();
                         debug_history.Sample(s);
                         return DebugPageHtml(s, debug_history);
                       });
    endpoint->AddRoute("/healthz", "text/plain", [] {
      return std::string("ok\n");
    });
    // The service accepts work for the CLI's whole run, so ready == alive
    // here; a long-lived server would gate this on warmup instead.
    endpoint->AddRoute("/readyz", "text/plain", [] {
      return std::string("ok\n");
    });
    if (Status st = endpoint->Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving /metrics, /debug, /healthz, /readyz on 127.0.0.1:%d\n",
                endpoint->port());
  }
  std::unique_ptr<StatsTicker> ticker;
  if (flags.count("stats-interval")) {
    const double interval = std::atof(flags.at("stats-interval").c_str());
    if (interval > 0) ticker = std::make_unique<StatsTicker>(service, interval);
  }

  std::printf("replaying %zu queries x%d through %d worker thread(s)...\n",
              queries->size(), repeat, service.num_threads());
  int64_t failed = 0;
  WallTimer timer;
  if (flags.count("arrival")) {
    // Open-loop replay: submissions leave the client on the arrival
    // model's clock regardless of completion, so queue depth reflects the
    // offered load.
    for (int r = 0; r < repeat; ++r) {
      ArrivalPacer pacer(flags.at("arrival"));
      if (!pacer.ok()) {
        std::fprintf(stderr,
                     "bad --arrival %s; expected asap, poisson:<qps>, or "
                     "burst:<size>:<gap_ms>\n",
                     flags.at("arrival").c_str());
        return 2;
      }
      std::vector<std::future<Result<QueryResult>>> futures;
      futures.reserve(queries->size());
      for (size_t i = 0; i < queries->size(); ++i) {
        pacer.WaitForSlot(static_cast<int>(i));
        futures.push_back(service.Submit((*queries)[i]));
      }
      for (auto& f : futures) {
        if (!f.get().ok()) ++failed;
      }
    }
  } else {
    for (int r = 0; r < repeat; ++r) {
      const auto results = service.RunBatch(*queries);
      for (const auto& res : results) {
        if (!res.ok()) ++failed;
      }
    }
  }
  const double wall_s = timer.ElapsedSeconds();
  if (ticker != nullptr) ticker->Stop();

  const MetricsSnapshot m = service.Metrics();
  std::printf("\n%s\n", m.ToString().c_str());
  std::printf("wall time          %10.3f s\n", wall_s);
  std::printf("batch throughput   %10.3f qps\n",
              wall_s > 0 ? static_cast<double>(m.completed) / wall_s : 0.0);

  if (flags.count("metrics-out") &&
      !WriteTextFile(flags.at("metrics-out"), service.MetricsToPrometheus())) {
    return 1;
  }
  if (flags.count("explain-out")) {
    // The slow-query reservoir is where per-query explains survive the
    // replay; export them as one JSON array (slowest first).
    std::string json = "[";
    bool first = true;
    for (const SlowQueryRecord& rec : m.slow_queries) {
      if (rec.explain == nullptr) continue;
      if (!first) json += ",";
      first = false;
      char head[128];
      std::snprintf(head, sizeof(head),
                    "{\"query_id\":%lld,\"latency_ms\":%.3f,\"explain\":",
                    static_cast<long long>(rec.query_id), rec.latency_ms);
      json += head;
      json += rec.explain->ToJson();
      json += "}";
    }
    json += "]\n";
    if (!WriteTextFile(flags.at("explain-out"), json)) return 1;
    std::printf("wrote slow-query explain JSON to %s\n",
                flags.at("explain-out").c_str());
  }
  if (flags.count("trace-out")) {
    // Workers are idle between batches, so the single-writer traces are
    // safe to export here.
    if (!WriteTextFile(flags.at("trace-out"), service.WorkerTracesToJson())) {
      return 1;
    }
    std::printf("wrote worker traces to %s\n", flags.at("trace-out").c_str());
  }
  endpoint.reset();

  if (failed > 0) {
    std::fprintf(stderr, "%lld queries failed\n",
                 static_cast<long long>(failed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skysr

int main(int argc, char** argv) {
  if (argc < 2) return skysr::Usage();
  const std::string cmd = argv[1];
  if (cmd == "index") {
    // `index <build|stats>` carries a subcommand before the flags.
    const auto flags = skysr::ParseFlags(argc, argv, 3);
    return skysr::CmdIndex(argc, argv, flags);
  }
  const auto flags = skysr::ParseFlags(argc, argv, 2);
  if (cmd == "generate") return skysr::CmdGenerate(flags);
  if (cmd == "gen") return skysr::CmdGen(flags);
  if (cmd == "info") return skysr::CmdInfo(flags);
  if (cmd == "query") return skysr::CmdQuery(flags);
  if (cmd == "workload") return skysr::CmdWorkload(flags);
  if (cmd == "batch" || cmd == "serve") return skysr::CmdBatch(flags);
  return skysr::Usage();
}
