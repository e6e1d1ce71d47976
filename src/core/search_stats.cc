#include "core/search_stats.h"

#include <cstdio>

namespace skysr {

const char* InfeasibleReasonName(InfeasibleReason reason) {
  switch (reason) {
    case InfeasibleReason::kNone:
      return "none";
    case InfeasibleReason::kNoMatch:
      return "no_match";
    case InfeasibleReason::kHall:
      return "hall";
    case InfeasibleReason::kDestUnreachable:
      return "dest_unreachable";
  }
  return "none";
}

std::string Infeasibility::ToString() const {
  if (!fired()) return "none";
  return std::string(InfeasibleReasonName(reason)) + "@" +
         std::to_string(position);
}

std::string SearchStats::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "elapsed=%.3fms%s%s%s skyline=%lld\n"
      "searches: runs=%lld cache_hits=%lld reruns=%lld "
      "settled=%lld relaxed=%lld weight_sum=%.4f first_weight_sum=%.4f\n"
      "candidates: examined=%lld pruned=%lld dup_rejected=%lld "
      "floor_skipped=%lld\n"
      "retrieval: bucket_runs=%lld resume_runs=%lld fwd_searches=%lld "
      "fwd_reuses=%lld fwd_evictions=%lld resume_reuses=%lld "
      "resume_evictions=%lld bucket_cands=%lld\n"
      "nninit: %.3fms routes=%lld weight_sum=%.4f perfect_len=%.4f "
      "max_sem_len=%.4f\n"
      "bounds: semantic_floor=%.4f\n"
      "queue: enq=%lld deq=%lld pruned=%lld peak=%lld "
      "nodes=%lld logical_bytes=%lld",
      elapsed_ms, timed_out ? " TIMED-OUT" : "",
      infeasible.fired() ? " INFEASIBLE=" : "",
      infeasible.fired() ? infeasible.ToString().c_str() : "",
      static_cast<long long>(skyline_size),
      static_cast<long long>(mdijkstra_runs),
      static_cast<long long>(mdijkstra_cache_hits),
      static_cast<long long>(cache_reruns),
      static_cast<long long>(vertices_settled),
      static_cast<long long>(edges_relaxed), weight_sum,
      first_search_weight_sum, static_cast<long long>(cand_examined),
      static_cast<long long>(cand_pruned),
      static_cast<long long>(cand_rejected),
      static_cast<long long>(cand_floor_skipped),
      static_cast<long long>(retriever_bucket_runs),
      static_cast<long long>(retriever_resume_runs),
      static_cast<long long>(bucket_fwd_searches),
      static_cast<long long>(bucket_fwd_reuses),
      static_cast<long long>(fwd_evictions),
      static_cast<long long>(resume_reuses),
      static_cast<long long>(resume_evictions),
      static_cast<long long>(bucket_candidates), nninit_ms,
      static_cast<long long>(nninit_routes), nninit_weight_sum,
      nninit_perfect_length, nninit_max_semantic_length, semantic_floor,
      static_cast<long long>(routes_enqueued),
      static_cast<long long>(routes_dequeued),
      static_cast<long long>(routes_pruned),
      static_cast<long long>(peak_queue_size),
      static_cast<long long>(route_nodes),
      static_cast<long long>(logical_peak_bytes));
  std::string out = buf;
  if (!phases.empty()) {
    out += "\nphases:";
    for (int i = 0; i < kNumTracePhases; ++i) {
      if (phases.phase[i].count == 0) continue;
      std::snprintf(buf, sizeof(buf), " %s=%.3fms/%lld",
                    kTracePhaseNames[i],
                    static_cast<double>(phases.phase[i].total_ns) / 1e6,
                    static_cast<long long>(phases.phase[i].count));
      out += buf;
    }
  }
  return out;
}

}  // namespace skysr
