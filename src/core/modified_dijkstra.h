// The modified Dijkstra of Algorithm 2: expands from the end of a partial
// route and emits every PoI that semantically matches the next position,
// pruning with Lemma 5.3 (dynamic budget) and Lemma 5.5 (on-path blockers,
// perfect-match traversal cut).
//
// The search emits (vertex, distance, similarity) triples in non-decreasing
// distance order, streamed to a callback so that complete routes can tighten
// the skyline threshold while the search is still running (the paper's
// Algorithm 2 updates S inline), and optionally appended to a caller-owned
// std::vector<ExpansionCandidate> — the on-the-fly cache's pool (§5.3.4).
//
// RunExpansionInto is a template over both callbacks so the budget check and
// candidate consumption inline into the Dijkstra loop (no type-erased call
// per settled vertex).
//
// Lemma 5.5 soundness (see DESIGN.md): substituting the on-path blocker for
// the candidate requires the blocker to be usable at this position — it must
// appear neither earlier in the route nor at any later position of any
// completion. Both are guaranteed exactly when every query position targets
// pairwise-distinct trees and all PoIs carry a single category; the engine
// passes apply_lemma55 = true only then. Otherwise candidates are emitted
// unfiltered and traversal does not stop at perfect matches — slower, still
// exact.

#ifndef SKYSR_CORE_MODIFIED_DIJKSTRA_H_
#define SKYSR_CORE_MODIFIED_DIJKSTRA_H_

#include <vector>

#include "core/candidate_stream.h"
#include "core/query.h"
#include "graph/dijkstra_runner.h"
#include "graph/graph.h"
#include "util/stamped_array.h"

namespace skysr {

/// Coverage metadata of one expansion search (the candidates themselves go
/// to the caller's vector / callback).
struct ExpansionOutcome {
  Weight covered_radius = 0;
  bool exhausted = false;
};

/// One settled vertex of an expansion search, in settle order. Resumable
/// slots (retrieval/resumable_retriever.h) log these to replay a traversal
/// for another sequence position.
struct SettleRecord {
  VertexId vertex;
  Weight dist;
};

/// Scratch arrays reusable across expansion searches of one engine.
struct ExpansionScratch {
  DijkstraWorkspace ws;
  StampedArray<double> max_sim_on_path;  // Lemma 5.5 inline state
};

/// Runs the expansion from `source` for one sequence position.
///
/// `budget_fn` is re-evaluated at every settle and returns the current
/// maximum useful distance (Lemma 5.3); it may shrink while the search runs
/// as the consumer tightens the skyline. `on_candidate` is invoked for each
/// emitted candidate in non-decreasing distance order. When `out` is
/// non-null every emitted candidate is also appended to it (cache fill);
/// null skips collection entirely (cache-off ablations).
///
/// Both callbacks are taken by forwarding reference and invoked directly —
/// a stateful budget functor passed as an lvalue keeps its memo across the
/// whole search.
template <typename BudgetFn, typename OnCandidate>
ExpansionOutcome RunExpansionInto(const Graph& g,
                                  const PositionMatcher& matcher,
                                  VertexId source, BudgetFn&& budget_fn,
                                  bool apply_lemma55,
                                  ExpansionScratch& scratch,
                                  std::vector<ExpansionCandidate>* out,
                                  OnCandidate&& on_candidate,
                                  DijkstraRunStats* stats_out) {
  ExpansionOutcome outcome;
  Weight break_dist = kInfWeight;
  bool stopped = false;

  // Per-vertex Lemma 5.5 state: the maximum similarity of any
  // semantically-matching PoI on the path from `source` (source excluded,
  // the vertex itself included). A candidate consults its PARENT's state,
  // which excludes the candidate itself.
  if (apply_lemma55) {
    scratch.max_sim_on_path.Prepare(g.num_vertices(), 0.0);
  }

  const auto emit = [&](VertexId v, Weight d, double sim) {
    const ExpansionCandidate cand{v, d, sim};
    if (out != nullptr) out->push_back(cand);
    on_candidate(cand);
  };

  // The budget also bounds relaxation: tentative distances at or beyond it
  // are refused instead of enqueued (they could never settle inside the
  // budget), trading heap traffic for a coverage cap via `min_refused`.
  Weight min_refused = kInfWeight;
  const SourceSeed seed{source, 0};
  DijkstraRunStats stats = RunDijkstraBounded(
      g, std::span<const SourceSeed>(&seed, 1), scratch.ws,
      [&](VertexId v, Weight d, VertexId parent) {
        // Lemma 5.3: distances are non-decreasing and the budget is
        // non-increasing, so the first settle past the budget ends the
        // search.
        const Weight budget = budget_fn();
        if (d >= budget) {
          break_dist = d;
          stopped = true;
          return VisitAction::kStop;
        }

        // The source itself may host a matching PoI (e.g. a query starting
        // at a PoI vertex); route-membership filtering is the consumer's
        // job, so no special-case here.
        const double sim = matcher.SimOfVertex(v);

        if (!apply_lemma55) {
          if (sim > 0) emit(v, d, sim);
          return VisitAction::kContinue;
        }

        double inherited = 0.0;
        if (parent != kInvalidVertex) {
          inherited = scratch.max_sim_on_path.Get(parent);
        }
        if (sim > 0 && inherited < sim) {
          // Lemma 5.5(i): emit only candidates not preceded by a
          // better-or-equal match.
          emit(v, d, sim);
        }
        scratch.max_sim_on_path.Set(v, sim > inherited ? sim : inherited);
        // Lemma 5.5(ii): nothing useful lies beyond a perfect match.
        if (sim == 1.0) return VisitAction::kSkipExpand;
        return VisitAction::kContinue;
      },
      budget_fn, &min_refused);

  Weight covered = stopped ? break_dist : kInfWeight;
  if (min_refused < covered) covered = min_refused;
  outcome.covered_radius = covered;
  outcome.exhausted = covered == kInfWeight;
  if (stats_out != nullptr) *stats_out += stats;
  return outcome;
}

}  // namespace skysr

#endif  // SKYSR_CORE_MODIFIED_DIJKSTRA_H_
