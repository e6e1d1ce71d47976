#include "retrieval/bucket_retriever.h"

#include <algorithm>

#include "cache/shared_query_cache.h"

namespace skysr {
namespace {

/// The settle of `vertex` in a PoI's vertex-sorted bucket (present by
/// construction when the vertex was settled by the PoI's backward search).
const PoiBucketSettle* FindSettle(std::span<const PoiBucketSettle> span,
                                  VertexId vertex) {
  const auto it = std::lower_bound(
      span.begin(), span.end(), vertex,
      [](const PoiBucketSettle& s, VertexId v) { return s.vertex < v; });
  SKYSR_DCHECK(it != span.end() && it->vertex == vertex);
  return &*it;
}

}  // namespace

void BucketRetriever::ComputeForward(VertexId source,
                                     OracleWorkspace& oracle_ws,
                                     BucketScanState& state,
                                     std::vector<FwdSearchSettle>* out) const {
  const ChOracle& ch = index_->oracle();
  state.settled.clear();
  ch.ForwardUpwardSearch(source, oracle_ws, &state.settled);
  out->clear();
  for (const auto& [v, df] : state.settled) {
    // Exact path-order sum src -> v, folded along the search tree: the
    // parent settles (and folds) first, so extending its sum with this
    // edge's pooled unpacked weights reproduces a full-path left fold
    // exactly.
    Weight fsum = 0;
    const VertexId parent = oracle_ws.fwd.Parent(v);
    if (parent != kInvalidVertex) {
      fsum = state.fsum_of.Get(parent);
      for (const Weight w :
           index_->FwdEdgeWeights(oracle_ws.fwd_edge.Get(v))) {
        fsum += w;
      }
    }
    state.fsum_of.Set(v, fsum);
    out->push_back(FwdSearchSettle{v, df, fsum});
  }
}

void BucketRetriever::EnsureForward(VertexId source,
                                    OracleWorkspace& oracle_ws,
                                    BucketScanState& state,
                                    SharedQueryCache& shared) const {
  if (state.cur_src == source) return;
  const Graph& g = index_->graph();
  state.df_of.Prepare(g.num_vertices(), kInfWeight);
  state.fsum_of.Prepare(g.num_vertices(), kInfWeight);

  // The immutable snapshot first (shared across workers, read with no
  // locks), then the private write-back cache. Misses search and insert,
  // so repeats become replays. The cache counts each lookup's outcome.
  std::span<const FwdSearchSettle> span;
  if (const FwdSnapshot* snap = shared.snapshot()) {
    span = snap->Find(source);
    if (!span.empty()) shared.CountSnapshotHit();
  }
  if (span.empty()) span = shared.fwd_cache().Lookup(source);
  if (span.empty()) {
    ComputeForward(source, oracle_ws, state, &state.fold_buf);
    span = shared.fwd_cache().Insert(source, state.fold_buf);
  } else {
    for (const FwdSearchSettle& s : span) {
      state.fsum_of.Set(s.vertex, s.fsum);
    }
  }
  // The per-vertex rounded view is rebuilt either way (the arrays describe
  // ONE source at a time; repopulating from the cached span is a linear
  // copy, not a search).
  state.fwd = span;
  for (const FwdSearchSettle& s : state.fwd) {
    state.df_of.Set(s.vertex, s.df);
  }
  state.cur_src = source;
}

Weight BucketRetriever::ExactDistanceTo(PoiId p,
                                        BucketScanState& state) const {
  const std::span<const PoiBucketSettle> span = index_->SettlesOf(p);

  // Phase 1: best rounded up-down sum over the meeting vertices (settled by
  // both the source's forward search and the PoI's stored backward search).
  Weight best = kInfWeight;
  for (const PoiBucketSettle& s : span) {
    const Weight df = state.df_of.Get(s.vertex);
    if (df == kInfWeight) continue;
    const Weight sum = df + s.db;
    if (sum < best) best = sum;
  }
  if (best == kInfWeight) return kInfWeight;

  // Phase 2: re-sum every meet inside the epsilon window, in source -> PoI
  // travel order, and keep the minimum — the exactness protocol of
  // ch_oracle.h, with the forward prefix pre-folded and the backward unpacks
  // read from the per-edge pools.
  const Weight window = best + best * ChOracle::kMeetEpsilon;
  Weight exact = kInfWeight;
  for (const PoiBucketSettle& s : span) {
    const Weight df = state.df_of.Get(s.vertex);
    if (df == kInfWeight || df + s.db > window) continue;
    const Weight resummed = ResumMeet(span, s, state.fsum_of.Get(s.vertex));
    if (resummed < exact) exact = resummed;
  }
  return exact;
}

Weight BucketRetriever::ResumMeet(std::span<const PoiBucketSettle> span,
                                  const PoiBucketSettle& meet,
                                  Weight fwd_sum) const {
  Weight acc = fwd_sum;
  const PoiBucketSettle* cur = &meet;
  while (cur->parent != kInvalidVertex) {
    for (const Weight w : index_->BwdEdgeWeights(cur->edge)) acc += w;
    cur = FindSettle(span, cur->parent);
  }
  return acc;
}

ExpansionOutcome BucketRetriever::Collect(
    VertexId source, const PositionMatcher& matcher,
    OracleWorkspace& oracle_ws, BucketScanState& state,
    SharedQueryCache& shared, Weight budget_cap, SearchStats* stats) const {
  EnsureForward(source, oracle_ws, state, shared);
  const Graph& g = index_->graph();
  state.cands.clear();
  state.poi_state.Prepare(g.num_pois(), 0);
  state.best.Prepare(g.num_pois(), kInfWeight);
  state.touched.clear();
  state.meets.clear();

  // Budget cap on the expensive exact work, with the same relative safety
  // margin the meet window uses: a candidate whose exact distance is below
  // the cap has a best rounded sum within kMeetEpsilon of it, so nothing
  // the consumer could accept is skipped. Skipping anything downgrades the
  // stream's coverage from exhaustive to the cap — exactly a budget-stopped
  // settle search's report.
  const Weight cap = budget_cap == kInfWeight
                         ? kInfWeight
                         : budget_cap + budget_cap * ChOracle::kMeetEpsilon;
  const Weight meet_cap =
      cap == kInfWeight ? kInfWeight : cap + cap * ChOracle::kMeetEpsilon;

  // Vertex-major phase 1: walk the source's forward settles against the
  // per-vertex entry CSR — one offset lookup per settle, then a sequential
  // pass over that vertex's entries. Membership is decided per PoI by the
  // matcher's (memoized) similarity on first touch; the matched pairs are
  // staged so phase 2 never repeats the lookups.
  for (const FwdSearchSettle& s : state.fwd) {
    for (const BucketEntry& e : index_->EntriesAtVertex(s.vertex)) {
      uint8_t st = state.poi_state.Get(e.poi);
      if (st == 0) {
        st = matcher.SimOfPoi(e.poi) > 0 ? 1 : 2;
        state.poi_state.Set(e.poi, st);
        if (st == 1) state.touched.push_back(e.poi);
      }
      if (st != 1) continue;
      const Weight sum = s.df + e.db;
      if (sum < state.best.Get(e.poi)) state.best.Set(e.poi, sum);
      // Meets provably beyond the cap can never fall in an in-cap
      // candidate's epsilon window; the min above still records them so
      // coverage accounting sees the PoI.
      if (sum <= meet_cap) {
        state.meets.push_back(
            BucketScanState::Meet{s.df, e.db, s.fsum, s.vertex, e.poi});
      }
    }
  }
  bool skipped = false;

  // Phase 2: re-sum the meets inside each candidate's epsilon window
  // (the exactness protocol of ExactDistanceTo). A multi-category
  // PoI under two scanned categories stages each meet twice; the min makes
  // the duplicate harmless.
  state.exact.Prepare(g.num_pois(), kInfWeight);
  for (const BucketScanState::Meet& m : state.meets) {
    const Weight b = state.best.Get(m.poi);
    if (b > cap) continue;  // provably at or beyond the budget
    if (m.df + m.db > b + b * ChOracle::kMeetEpsilon) continue;
    const std::span<const PoiBucketSettle> span = index_->SettlesOf(m.poi);
    const Weight resummed =
        ResumMeet(span, *FindSettle(span, m.vertex), m.fsum);
    if (resummed < state.exact.Get(m.poi)) {
      state.exact.Set(m.poi, resummed);
    }
  }

  for (const PoiId p : state.touched) {
    if (state.best.Get(p) > cap) {
      if (state.best.Get(p) != kInfWeight) skipped = true;
      continue;
    }
    const Weight dist = state.exact.Get(p);
    if (dist == kInfWeight) continue;  // unreached
    state.cands.push_back(
        ExpansionCandidate{g.VertexOfPoi(p), dist, matcher.SimOfPoi(p)});
  }
  // Dijkstra emission order: non-decreasing distance, vertex-id tie-break.
  std::sort(state.cands.begin(), state.cands.end(),
            [](const ExpansionCandidate& a, const ExpansionCandidate& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.vertex < b.vertex;
            });
  if (stats != nullptr) {
    stats->bucket_candidates += static_cast<int64_t>(state.cands.size());
  }
  return skipped ? ExpansionOutcome{budget_cap, false}
                 : ExpansionOutcome{kInfWeight, true};
}

FwdSnapshot BuildFwdSnapshot(const CategoryBucketIndex& index,
                             std::span<const VertexId> sources,
                             uint64_t structure_checksum) {
  FwdSnapshot snap;
  snap.set_structure_checksum(structure_checksum);
  const BucketRetriever retriever(index);
  OracleWorkspace oracle_ws;
  BucketScanState state;
  std::vector<FwdSearchSettle> buf;
  std::vector<VertexId> seen;
  const int64_t n = index.graph().num_vertices();
  for (const VertexId s : sources) {
    if (std::find(seen.begin(), seen.end(), s) != seen.end()) continue;
    seen.push_back(s);
    state.fsum_of.Prepare(n, kInfWeight);
    retriever.ComputeForward(s, oracle_ws, state, &buf);
    snap.Add(s, buf);
  }
  snap.Finalize();
  return snap;
}

}  // namespace skysr
