// Deterministic work-counter gate for the core engine.
//
// The algorithm's work counters (settles, relaxations, enqueues, candidate
// examinations, ...) are deterministic per (suite, seed) regardless of
// machine speed, so `--write-golden FILE` records them for a fixed small
// suite and `--check-golden FILE` fails loudly when they drift: a work
// regression gate with no wall-time threshold. Timing lives in perfbench/.
//
//   bench_hotpath --check-golden bench/golden/hotpath_counters.txt
//   bench_hotpath --write-golden bench/golden/hotpath_counters.txt

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/logging.h"

namespace skysr::bench {
namespace {

/// One engine configuration of the suite. "settle" is the classic path (no
/// index); "auto" is the production cost model over CH + category-bucket
/// tables (resume-dominated at this size); "bucket" forces the bucket scan
/// so its work is pinned even where the cost model would decline; "warm" is
/// auto with an engine-lifetime SharedQueryCache, pinning the cross-query
/// cache-served work.
struct BenchConfig {
  const char* label;
  RetrieverKind retriever;
  bool with_index;
  bool with_xcache = false;
};

constexpr BenchConfig kConfigs[] = {
    {"settle", RetrieverKind::kSettle, false},
    {"auto", RetrieverKind::kAuto, true},
    {"bucket", RetrieverKind::kBucket, true},
    {"warm", RetrieverKind::kAuto, true, true},
};

/// Runs a family's workload once under `config` and returns its golden row:
/// "family/config key=value ..." over the summed SearchStats counters.
std::string GoldenRowText(const Scenario& sc, const BenchConfig& config) {
  std::unique_ptr<ChOracle> ch;
  std::unique_ptr<CategoryBucketIndex> buckets;
  if (config.with_index) {
    ch = std::make_unique<ChOracle>(ChOracle::Build(sc.dataset.graph));
    buckets = std::make_unique<CategoryBucketIndex>(
        CategoryBucketIndex::Build(sc.dataset.graph, *ch));
  }
  BssrEngine engine(sc.dataset.graph, sc.dataset.forest, ch.get(),
                    buckets.get());
  std::optional<SharedQueryCache> xcache;
  if (config.with_xcache) {
    xcache.emplace();
    engine.AttachSharedCache(&*xcache);
  }
  QueryOptions options;
  options.retriever = config.retriever;

  SearchStats sum;
  for (const Query& q : sc.queries) {
    const auto r = engine.Run(q, options);
    SKYSR_CHECK_MSG(r.ok(), "hotpath golden query failed");
    const SearchStats& s = r->stats;
    sum.vertices_settled += s.vertices_settled;
    sum.edges_relaxed += s.edges_relaxed;
    sum.routes_enqueued += s.routes_enqueued;
    sum.routes_dequeued += s.routes_dequeued;
    sum.mdijkstra_runs += s.mdijkstra_runs;
    sum.mdijkstra_cache_hits += s.mdijkstra_cache_hits;
    sum.cand_examined += s.cand_examined;
    sum.cand_floor_skipped += s.cand_floor_skipped;
    sum.skyline_size += s.skyline_size;
    sum.retriever_bucket_runs += s.retriever_bucket_runs;
    sum.retriever_resume_runs += s.retriever_resume_runs;
    sum.bucket_fwd_searches += s.bucket_fwd_searches;
    sum.bucket_fwd_reuses += s.bucket_fwd_reuses;
    sum.bucket_candidates += s.bucket_candidates;
  }
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "%s/%s queries=%lld settled=%lld relaxed=%lld "
                "enqueued=%lld dequeued=%lld runs=%lld cache_hits=%lld "
                "cand_examined=%lld floor_skipped=%lld skyline=%lld "
                "bucket_runs=%lld resume_runs=%lld fwd_searches=%lld "
                "fwd_reuses=%lld bucket_cands=%lld\n",
                sc.spec.name.c_str(), config.label,
                static_cast<long long>(sc.queries.size()),
                static_cast<long long>(sum.vertices_settled),
                static_cast<long long>(sum.edges_relaxed),
                static_cast<long long>(sum.routes_enqueued),
                static_cast<long long>(sum.routes_dequeued),
                static_cast<long long>(sum.mdijkstra_runs),
                static_cast<long long>(sum.mdijkstra_cache_hits),
                static_cast<long long>(sum.cand_examined),
                static_cast<long long>(sum.cand_floor_skipped),
                static_cast<long long>(sum.skyline_size),
                static_cast<long long>(sum.retriever_bucket_runs),
                static_cast<long long>(sum.retriever_resume_runs),
                static_cast<long long>(sum.bucket_fwd_searches),
                static_cast<long long>(sum.bucket_fwd_reuses),
                static_cast<long long>(sum.bucket_candidates));
  return buf;
}

/// Canonical text form of the golden counters over the fixed suite: all
/// three graph families under every configuration. A byte-for-byte
/// comparison is the whole check.
std::string GoldenText() {
  std::string out = "skysr hotpath golden counters v6\n";
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    const Scenario sc = MakeScenario(HotpathScenarioSpec(family));
    for (const BenchConfig& config : kConfigs) {
      out += GoldenRowText(sc, config);
    }
  }
  return out;
}

/// Per-counter diff of two golden texts: lines are "label key=value ...",
/// so when the row sets line up the mismatch report can name exactly which
/// counters drifted and by how much, instead of dumping two walls of text.
/// Falls back to the full dump when the structure itself differs (header
/// bump, added/removed rows or fields).
struct GoldenRow {
  std::string label;                                        // "family/config"
  std::vector<std::pair<std::string, long long>> counters;  // in line order
};

std::vector<GoldenRow> ParseGoldenRows(const std::string& text) {
  std::vector<GoldenRow> rows;
  size_t pos = text.find('\n');  // skip the header line
  if (pos == std::string::npos) return rows;
  ++pos;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    GoldenRow row;
    size_t tok = 0;
    while (tok < line.size()) {
      size_t end = line.find(' ', tok);
      if (end == std::string::npos) end = line.size();
      const std::string field = line.substr(tok, end - tok);
      tok = end + 1;
      if (field.empty()) continue;
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        row.label = field;
      } else {
        row.counters.emplace_back(field.substr(0, eq),
                                  std::atoll(field.c_str() + eq + 1));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Prints "row label: counter expected -> actual (delta)" lines; returns
/// false when the two texts are not row/field aligned (caller falls back to
/// the full dump).
bool PrintGoldenCounterDiff(const std::string& expected,
                            const std::string& actual) {
  const size_t ehdr = expected.find('\n');
  const size_t ahdr = actual.find('\n');
  if (ehdr == std::string::npos || ahdr == std::string::npos) return false;
  if (expected.substr(0, ehdr) != actual.substr(0, ahdr)) {
    std::fprintf(stderr, "golden header differs: \"%s\" vs \"%s\"\n",
                 expected.substr(0, ehdr).c_str(),
                 actual.substr(0, ahdr).c_str());
    return false;
  }
  const std::vector<GoldenRow> exp = ParseGoldenRows(expected);
  const std::vector<GoldenRow> act = ParseGoldenRows(actual);
  if (exp.size() != act.size()) return false;
  int diffs = 0;
  for (size_t i = 0; i < exp.size(); ++i) {
    if (exp[i].label != act[i].label ||
        exp[i].counters.size() != act[i].counters.size()) {
      return false;
    }
    for (size_t c = 0; c < exp[i].counters.size(); ++c) {
      if (exp[i].counters[c].first != act[i].counters[c].first) return false;
      const long long e = exp[i].counters[c].second;
      const long long a = act[i].counters[c].second;
      if (e != a) {
        std::fprintf(stderr, "  %-22s %-14s %lld -> %lld (%+lld)\n",
                     exp[i].label.c_str(), exp[i].counters[c].first.c_str(),
                     e, a, a - e);
        ++diffs;
      }
    }
  }
  return diffs > 0;
}

std::string ReadFileOrEmpty(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool WriteFile(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_hotpath [--write-golden FILE] "
               "[--check-golden FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const char* write_golden = nullptr;
  const char* check_golden = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-golden") == 0 && i + 1 < argc) {
      write_golden = argv[++i];
    } else if (std::strcmp(argv[i], "--check-golden") == 0 && i + 1 < argc) {
      check_golden = argv[++i];
    } else {
      return Usage();
    }
  }
  if (write_golden == nullptr && check_golden == nullptr) return Usage();

  const std::string text = GoldenText();
  if (write_golden != nullptr) {
    if (!WriteFile(write_golden, text)) {
      std::fprintf(stderr, "failed to write %s\n", write_golden);
      return 1;
    }
    std::printf("wrote golden counters to %s\n%s", write_golden,
                text.c_str());
  }
  if (check_golden != nullptr) {
    const std::string expected = ReadFileOrEmpty(check_golden);
    if (expected.empty()) {
      std::fprintf(stderr, "golden file %s missing or empty\n",
                   check_golden);
      return 1;
    }
    if (expected != text) {
      std::fprintf(stderr, "GOLDEN COUNTER MISMATCH (%s)\n", check_golden);
      if (!PrintGoldenCounterDiff(expected, text)) {
        // Structural mismatch (header/rows/fields) — dump both in full.
        std::fprintf(stderr, "-- expected:\n%s-- actual:\n%s",
                     expected.c_str(), text.c_str());
      }
      std::fprintf(
          stderr,
          "The counters are deterministic per toolchain: a diff means an\n"
          "algorithmic-work change in the engine, OR a libm/compiler\n"
          "rounding change (scenario generation uses pow/log/cos). If the\n"
          "change is intentional or the toolchain moved, regenerate with\n"
          "  bench_hotpath --write-golden %s\n"
          "and commit the result alongside an explanation.\n",
          check_golden);
      return 1;
    }
    std::printf("golden counters match %s\n", check_golden);
  }
  return 0;
}

}  // namespace
}  // namespace skysr::bench

int main(int argc, char** argv) { return skysr::bench::Main(argc, argv); }
