// Trace phases and per-phase aggregates — the vocabulary of the tracing
// subsystem (src/obs/). This header is dependency-free so core/search_stats.h
// can embed PhaseAggregates without pulling the rest of obs into every
// engine translation unit.
//
// Each phase maps to a stage of the paper's evaluation (see DESIGN.md §5):
// NNinit is §5.3.1 / Table 7's "initial search" column, expansion +
// retrieval are the bulk-search body behind Tables 7-9, the lower bound is
// §5.3.3 / Figure 4, and the service phases decompose the end-to-end
// latency the serving benches report.

#ifndef SKYSR_OBS_TRACE_PHASE_H_
#define SKYSR_OBS_TRACE_PHASE_H_

#include <cstdint>

namespace skysr {

/// One instrumented region. Engine phases come first, service phases last;
/// values are contiguous so aggregates live in a flat array.
enum class TracePhase : uint8_t {
  kQuery = 0,       // root span: one whole BssrEngine::Run
  kNnInit,          // §5.3.1 initial search
  kDestTails,       // §6 destination-distance table (reverse Dijkstra / LRU)
  kLowerBound,      // §5.3.3 leg lower bounds
  kOracleTable,     // bucket-served NNinit hops / LB legs (inside init/LB)
  kQbDrain,         // Algorithm 1's bulk-queue drain loop
  kExpansion,       // one expand(): cache replay or fresh search
  kRetrieval,       // the expansion's backend work (settle/bucket/resume)
  kSkylineInsert,   // SkylineSet::Update calls
  kQueueWait,       // service: submission -> worker pickup
  kCacheLookup,     // service: result-cache probe
  kExecute,         // service: engine.Run inside a worker
};

inline constexpr int kNumTracePhases = 12;

/// Stable lowercase names, used by the Chrome trace export, the SearchStats
/// dump and the bench JSON. Index = static_cast<int>(phase).
inline constexpr const char* kTracePhaseNames[kNumTracePhases] = {
    "query",     "nn_init",   "dest_tails",     "lower_bound",
    "oracle_table", "qb_drain", "expansion",    "retrieval",
    "skyline_insert", "queue_wait", "cache_lookup", "execute",
};

inline const char* TracePhaseName(TracePhase p) {
  return kTracePhaseNames[static_cast<int>(p)];
}

/// Count/total/max wall time of one phase across a window (one query, one
/// batch — whatever the owner aggregates over).
struct PhaseAggregate {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;

  void Add(int64_t dur_ns) {
    ++count;
    total_ns += dur_ns;
    if (dur_ns > max_ns) max_ns = dur_ns;
  }
};

/// Flat per-phase aggregate table. Embedded in SearchStats (zeroed when
/// tracing is off — the default — so golden counters and allocation counts
/// are untouched).
struct PhaseAggregates {
  PhaseAggregate phase[kNumTracePhases] = {};

  const PhaseAggregate& of(TracePhase p) const {
    return phase[static_cast<int>(p)];
  }
  PhaseAggregate& of(TracePhase p) { return phase[static_cast<int>(p)]; }

  bool empty() const {
    for (const PhaseAggregate& a : phase) {
      if (a.count != 0) return false;
    }
    return true;
  }

  void Clear() {
    for (PhaseAggregate& a : phase) a = PhaseAggregate{};
  }

  void Merge(const PhaseAggregates& o) {
    for (int i = 0; i < kNumTracePhases; ++i) {
      phase[i].count += o.phase[i].count;
      phase[i].total_ns += o.phase[i].total_ns;
      if (o.phase[i].max_ns > phase[i].max_ns) {
        phase[i].max_ns = o.phase[i].max_ns;
      }
    }
  }

  /// Delta of this (current) table against an earlier snapshot `before` of
  /// the same table — how a per-query window is cut out of a trace that the
  /// owner aggregates across queries. Counts and totals subtract exactly; a
  /// per-window max is not recoverable from two snapshots, so active phases
  /// carry the running window max (an upper bound on the true delta max).
  PhaseAggregates DiffSince(const PhaseAggregates& before) const {
    PhaseAggregates d;
    for (int i = 0; i < kNumTracePhases; ++i) {
      d.phase[i].count = phase[i].count - before.phase[i].count;
      d.phase[i].total_ns = phase[i].total_ns - before.phase[i].total_ns;
      d.phase[i].max_ns = d.phase[i].count > 0 ? phase[i].max_ns : 0;
    }
    return d;
  }
};

}  // namespace skysr

#endif  // SKYSR_OBS_TRACE_PHASE_H_
