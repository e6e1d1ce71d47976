#include "obs/explain.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace skysr {

namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

}  // namespace

std::string QueryExplain::ToTreeString() const {
  std::string out = "explain\n";
  Appendf(&out,
          "├─ plan: oracle=%s lemma5.5=%s retriever=%s -> %s\n",
          oracle.c_str(), deferred_lemma55 ? "deferred" : "inline",
          retriever_requested.c_str(),
          bucket_backend     ? "bucket"
          : deferred_lemma55 ? "resume"
                             : "settle");
  Appendf(&out,
          "│  └─ cost model: fwd_settles=%" PRId64
          " settle_density=%.4f vertices=%" PRId64 "\n",
          cost_fwd_settles, cost_settle_density, cost_num_vertices);
  Appendf(&out, "├─ infeasible: %s\n", infeasible.ToString().c_str());
  Appendf(&out, "├─ semantic_floor: %.17g\n", semantic_floor);
  out += "├─ positions\n";
  for (size_t m = 0; m < positions.size(); ++m) {
    const ExplainPositionBackends& p = positions[m];
    Appendf(&out,
            "│  %s─ [%zu] fresh=%" PRId64 " cache_replay=%" PRId64
            " bucket=%" PRId64 " resume=%" PRId64 "\n",
            m + 1 == positions.size() ? "└" : "├", m, p.fresh_searches,
            p.cache_replays, p.bucket_runs, p.resume_runs);
  }
  out += "├─ caches\n";
  Appendf(&out,
          "│  ├─ fwd_search: %" PRId64 " hit / %" PRId64 " miss, %" PRId64
          " bytes\n",
          fwd_search.hits, fwd_search.misses, fwd_search.bytes);
  Appendf(&out, "│  ├─ dest_tail: %s (%" PRId64 " hit / %" PRId64
                " miss), %" PRId64 " bytes\n",
          dest_tail_source.c_str(), dest_tail.hits, dest_tail.misses,
          dest_tail.bytes);
  Appendf(&out,
          "│  ├─ result_cache: %" PRId64 " hit / %" PRId64 " miss\n",
          result_cache.hits, result_cache.misses);
  Appendf(&out,
          "│  └─ resume_slots: %" PRId64 " reuse / %" PRId64 " evict\n",
          resume_slots.hits, resume_slots.misses);
  Appendf(&out,
          "└─ pruning: cand_pruned=%" PRId64 " floor_skips=%" PRId64 "\n",
          cand_pruned, floor_skips);
  return out;
}

std::string QueryExplain::ToJson() const {
  std::string out = "{";
  Appendf(&out, "\"oracle\":\"%s\",\"lemma55\":\"%s\",", oracle.c_str(),
          deferred_lemma55 ? "deferred" : "inline");
  Appendf(&out, "\"retriever\":{\"requested\":\"%s\",\"bucket\":%s,"
                "\"resume\":%s,\"cost_fwd_settles\":%" PRId64
                ",\"cost_settle_density\":%.6f,\"cost_vertices\":%" PRId64
                "},",
          retriever_requested.c_str(), bucket_backend ? "true" : "false",
          deferred_lemma55 ? "true" : "false", cost_fwd_settles,
          cost_settle_density, cost_num_vertices);
  Appendf(&out, "\"infeasible\":{\"reason\":\"%s\",\"position\":%d},",
          InfeasibleReasonName(infeasible.reason), infeasible.position);
  Appendf(&out, "\"semantic_floor\":%.17g,", semantic_floor);
  out += "\"positions\":[";
  for (size_t m = 0; m < positions.size(); ++m) {
    const ExplainPositionBackends& p = positions[m];
    if (m != 0) out += ',';
    Appendf(&out,
            "{\"fresh\":%" PRId64 ",\"cache_replay\":%" PRId64
            ",\"bucket\":%" PRId64 ",\"resume\":%" PRId64 "}",
            p.fresh_searches, p.cache_replays, p.bucket_runs, p.resume_runs);
  }
  out += "],\"caches\":{";
  const auto layer = [&](const char* name, const ExplainCacheLayer& l,
                         bool last) {
    Appendf(&out,
            "\"%s\":{\"hits\":%" PRId64 ",\"misses\":%" PRId64
            ",\"bytes\":%" PRId64 "}%s",
            name, l.hits, l.misses, l.bytes, last ? "" : ",");
  };
  layer("fwd_search", fwd_search, false);
  layer("dest_tail", dest_tail, false);
  Appendf(&out, "\"dest_tail_source\":\"%s\",", dest_tail_source.c_str());
  layer("result_cache", result_cache, false);
  layer("resume_slots", resume_slots, true);
  out += "},";
  Appendf(&out,
          "\"pruning\":{\"cand_pruned\":%" PRId64 ",\"floor_skips\":%" PRId64
          "}}",
          cand_pruned, floor_skips);
  return out;
}

}  // namespace skysr
