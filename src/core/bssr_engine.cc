#include "core/bssr_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "core/candidate_stream.h"
#include "core/feasibility.h"
#include "core/nn_init.h"
#include "core/skyline_set.h"
#include "core/threshold.h"
#include "obs/explain.h"
#include "obs/query_trace.h"
#include "graph/dijkstra.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/poi_retriever.h"
#include "retrieval/resumable_retriever.h"
#include "util/timer.h"

namespace skysr {
namespace {

/// The Q_b drain reads the wall clock only this often — a clock read per
/// dequeue costs more than the dequeue itself. Power of two so the check
/// compiles to a mask.
constexpr int64_t kTimeoutCheckInterval = 1024;

/// The exact Lemma 5.5 eligibility scan costs O(|P| * k) similarity
/// evaluations; above this PoI count a query with tiny search spaces could
/// pay more for the scan than for its searches, so larger graphs keep the
/// conservative structural answer (deferred mode) instead.
constexpr int64_t kExactLemma55ScanMaxPois = 1 << 16;

/// Generation-stamped expansion budget (Lemma 5.3). The budget is a pure
/// function of the fixed (acc, len, m) of one expansion and the skyline, so
/// it only needs recomputing when the skyline's generation moves — not per
/// settled vertex or per replayed cache candidate. Passed by lvalue into the
/// monomorphized search so the memo spans the whole expansion.
struct GenStampedBudget {
  const ThresholdPolicy* policy;
  double acc;
  Weight len;
  int m;
  uint64_t generation = kNone;
  Weight value = 0;

  static constexpr uint64_t kNone = ~uint64_t{0};

  Weight operator()() {
    const uint64_t g = policy->skyline().generation();
    if (g != generation) {
      generation = g;
      value = policy->ExpansionBudget(acc, len, m);
    }
    return value;
  }
};

/// Per-expansion, per-similarity decision memo. For one expansion (fixed
/// acc, len, m) and one skyline generation, a candidate's accept/prune
/// decision depends only on (sim, dist [, destination tail]) — and the
/// sim-dependent ingredients (extended accumulator, semantic score,
/// staircase threshold) are identical for every candidate sharing a
/// similarity value, of which a position has only a handful (category-tree
/// similarity values). Memoizing them turns the
/// per-candidate work into a slot scan plus the ORIGINAL threshold
/// comparisons on the original operands — decisions stay bit-exact, only
/// the recomputation of their inputs is skipped. Generation moves drop the
/// memo, so tightened skylines are always honored.
struct SimDecisionMemo {
  // Direct-mapped on the similarity's bit pattern: one hash, one integer
  // compare per lookup. Similarities are positive (+0.0 is never emitted),
  // so bit pattern 0 doubles as the empty marker; distinct bit patterns are
  // distinct values for positive doubles.
  static constexpr int kSlots = 32;  // power of two

  explicit SimDecisionMemo(uint64_t gen) : generation(gen) {}

  uint64_t generation;
  // Only sim_bits needs zeroing: the other arrays are written on slot
  // build before any read.
  uint64_t sim_bits[kSlots] = {};
  double nacc[kSlots];
  double nsem[kSlots];
  Weight th[kSlots];  // Threshold at the semantic floor (last: nsem)

  static int SlotOf(uint64_t bits) {
    return static_cast<int>((bits * 0x9e3779b97f4a7c15ull) >> 59);
  }
  void Invalidate(uint64_t gen) {
    generation = gen;
    for (uint64_t& b : sim_bits) b = 0;
  }
};

}  // namespace

BssrEngine::BssrEngine(const Graph& graph, const CategoryForest& forest,
                       const ChOracle* oracle,
                       const CategoryBucketIndex* buckets)
    : g_(&graph), forest_(&forest), oracle_(oracle), buckets_(buckets) {
  SKYSR_DCHECK(oracle == nullptr || &oracle->graph() == &graph);
  // Bucket tables must describe exactly this (graph, oracle); anything else
  // is silently dropped rather than risking a foreign CH build's CSR
  // indices.
  if (buckets_ != nullptr &&
      (oracle_ == nullptr || &buckets_->graph() != g_ ||
       &buckets_->oracle() != oracle_)) {
    buckets_ = nullptr;
  }
  for (PoiId p = 0; p < g_->num_pois(); ++p) {
    if (g_->PoiCategories(p).size() > 1) {
      has_multi_category_poi_ = true;
      break;
    }
  }
}

Result<QueryResult> BssrEngine::Run(const Query& query,
                                    const QueryOptions& options) {
  SKYSR_RETURN_NOT_OK(ValidateQuery(*g_, *forest_, query));
  WallTimer timer;
  QueryResult result;
  SearchStats& stats = result.stats;

  // Decision attribution (src/obs/explain.h): allocated only on request, so
  // the default path keeps the zero-steady-state-allocation contract. Every
  // attribution site below is one null-check branch when off; nothing an
  // explain records ever feeds back into a decision, so results and work
  // counters are bit-identical either way.
  QueryExplain* exp = nullptr;
  if (options.explain) {
    result.explain = std::make_shared<QueryExplain>();
    exp = result.explain.get();
  }

  // Tracing (src/obs/): resolved to null unless attached AND enabled, so
  // every span site below is one predictable branch in the default
  // configuration. The oracle workspace carries the pointer into the
  // bucket-served NNinit hops. Aggregates are per-trace-window; the
  // snapshot cuts out this query's delta for SearchStats regardless of when
  // the caller Clear()ed.
  QueryTrace* const trace =
      (trace_ != nullptr && trace_->enabled()) ? trace_ : nullptr;
  ws_.oracle_ws.trace = trace;
  const PhaseAggregates phases_before =
      trace != nullptr ? trace->aggregates() : PhaseAggregates{};
  TraceSpan query_span(trace, TracePhase::kQuery);

  const SimilarityFunction& sim_fn =
      options.similarity ? *options.similarity : *DefaultSimilarity();
  const SemanticAggregator agg(options.aggregation);
  const int k = query.size();

  std::vector<PositionMatcher>& matchers = ws_.matchers;
  matchers.clear();
  matchers.reserve(static_cast<size_t>(k));
  for (const CategoryPredicate& pred : query.sequence) {
    matchers.emplace_back(*g_, *forest_, sim_fn, pred,
                          options.multi_category);
  }
  // Per-position similarity memos: a PoI's similarity is evaluated at most
  // once per query position, then read back as an array hit in the settle
  // loops and the full-PoI scans. Attached only after the matcher vector is
  // fully built (emplace_back may reallocate).
  if (ws_.sim_memo.size() < static_cast<size_t>(k)) {
    ws_.sim_memo.resize(static_cast<size_t>(k));
  }
  for (int m = 0; m < k; ++m) {
    ws_.sim_memo[static_cast<size_t>(m)].Prepare(g_->num_pois(), -1.0);
    matchers[static_cast<size_t>(m)].AttachSimCache(
        &ws_.sim_memo[static_cast<size_t>(m)]);
  }

  // Lemma 5.5 is sound exactly when a blocking PoI can never be usable at
  // any OTHER position of the route (see modified_dijkstra.h): no PoI may
  // semantically match two positions. The structural pre-check — pairwise-
  // disjoint position trees and single-category PoIs — proves that for the
  // common workload without touching PoIs; when it can't, the exact per-PoI
  // test decides (its memoized similarities are reused by every later
  // stage, so the scan is mostly prewarming) — except on PoI sets large
  // enough that the scan itself could dominate a small query, which keep
  // the conservative answer. A single-position query can never reuse a
  // blocker elsewhere, so it always keeps the cuts.
  bool needs_deferred_lemma55 = has_multi_category_poi_;
  for (int i = 0; !needs_deferred_lemma55 && i < k; ++i) {
    for (int j = i + 1; !needs_deferred_lemma55 && j < k; ++j) {
      for (TreeId t : matchers[static_cast<size_t>(i)].trees()) {
        const auto& tj = matchers[static_cast<size_t>(j)].trees();
        if (std::find(tj.begin(), tj.end(), t) != tj.end()) {
          needs_deferred_lemma55 = true;
          break;
        }
      }
    }
  }
  if (needs_deferred_lemma55 &&
      (k < 2 || g_->num_pois() <= kExactLemma55ScanMaxPois)) {
    needs_deferred_lemma55 = false;
    for (PoiId p = 0; k >= 2 && p < g_->num_pois(); ++p) {
      int matched = 0;
      for (int m = 0; m < k; ++m) {
        if (matchers[static_cast<size_t>(m)].SimOfPoi(p) > 0 &&
            ++matched >= 2) {
          break;
        }
      }
      if (matched >= 2) {
        needs_deferred_lemma55 = true;
        break;
      }
    }
  }

  // Destination distances (§6): D(v, destination) for every v. Directed
  // graphs search the reversed graph, built lazily once per engine instead
  // of per query.
  const std::vector<Weight>* dest_dist = nullptr;
  if (query.destination) {
    TraceSpan tails_span(trace, TracePhase::kDestTails);
    DistancesTo(*g_, *query.destination, reversed_, ws_.dijkstra_ws,
                &ws_.dest_dist);
    dest_dist = &ws_.dest_dist;
  }

  SkylineSet& skyline = ws_.skyline;
  RouteArena& arena = ws_.arena;
  MdijkstraCache& cache = ws_.cache;
  skyline.Clear();
  arena.Clear();
  cache.Clear();
  ws_.prune_floors.Clear();
  ws_.bucket_scan.Clear();
  // Warm state (src/cache/): forward searches and resumable slots run
  // through one SharedQueryCache — the attached one, kept across queries,
  // or the workspace's own, emptied first so a detached engine stays cold
  // per query. The per-query scan views (df_of/fsum_of) were just cleared
  // above, so a warm query differs from a cold one only in which searches
  // it skips.
  SharedQueryCache* const xc = xcache_ != nullptr ? xcache_ : &ws_.xcache;
  if (xcache_ == nullptr) xc->Invalidate();
  const SharedCacheCounters xc_before = xc->Counters();
  ResumablePool& resume_pool = xc->resume_pool();
  resume_pool.Prepare(RetrieverCostModel::ResumableSlots(g_->num_vertices()));
  ws_.qb.Reset(options.queue_discipline, k);
  QbQueue& qb = ws_.qb;

  // --- PoI-retrieval plan (src/retrieval/): which backend answers fresh
  // expansion searches. Bucket scans and resumable slots apply only in
  // deferred-Lemma-5.5 mode, where the traversal is matcher-independent and
  // an expansion is exactly "all matching PoIs within the budget radius, in
  // (dist, vertex) order" — a query the bucket tables answer without
  // settling road vertices, and one suspended search per source answers for
  // every position. There, every expansion the bucket plan leaves to a
  // graph search runs on a resumable slot, whatever the retriever kind.
  // Every backend is bit-identical (the differential harness sweeps them);
  // the plan is purely a speed choice, and it is a pure function of the
  // query so work counters stay deterministic.
  const RetrieverKind rk = options.retriever;
  const bool bucket_backend =
      needs_deferred_lemma55 && buckets_ != nullptr &&
      (rk == RetrieverKind::kBucket ||
       (rk == RetrieverKind::kAuto &&
        RetrieverCostModel::PreferBucket(oracle_->ApproxSearchSettles(),
                                         buckets_->SettleDensity(),
                                         g_->num_vertices())));

  // Exact source -> PoI distances off the bucket tables for NNinit hops
  // and (with bucket_backend) expansions: kAuto lets each hop's cost model
  // choose, kBucket serves them all, kSettle uses no bucket work. The
  // forward searches land in the warm-state cache the bulk search reuses.
  std::optional<BucketDistances> bucket_dist;
  if (buckets_ != nullptr && rk != RetrieverKind::kSettle) {
    bucket_dist.emplace(BucketDistances{BucketRetriever(*buckets_),
                                        &ws_.oracle_ws, &ws_.bucket_scan, xc,
                                        rk == RetrieverKind::kBucket});
  }

  if (exp != nullptr) {
    exp->oracle =
        oracle_ != nullptr ? OracleKindName(OracleKind::kCh) : "none";
    exp->deferred_lemma55 = needs_deferred_lemma55;
    exp->retriever_requested = RetrieverKindName(rk);
    exp->bucket_backend = bucket_backend;
    exp->cost_fwd_settles =
        oracle_ != nullptr ? oracle_->ApproxSearchSettles() : 0;
    exp->cost_settle_density =
        buckets_ != nullptr ? buckets_->SettleDensity() : 0.0;
    exp->cost_num_vertices = g_->num_vertices();
    exp->positions.resize(static_cast<size_t>(k));
  }

  // Feasibility gate (core/feasibility.h): a query with no sequenced route
  // at all skips NNinit, the bounds and the search, whose thresholds would
  // otherwise stay infinite and prune nothing. Its empty skyline is exact
  // and leaves through the common epilogue below.
  stats.infeasible =
      CheckFeasibility(*g_, matchers, dest_dist, &ws_.feasibility);
  const bool feasible = !stats.infeasible.fired();

  // --- Optimization 1: initial search (§5.3.1). ---
  if (feasible && options.use_initial_search) {
    TraceSpan nn_span(trace, TracePhase::kNnInit);
    RunNnInit(*g_, matchers, query.start, agg, dest_dist, ws_.dijkstra_ws,
              &skyline, &stats, &ws_.nn_init,
              bucket_dist ? &*bucket_dist : nullptr);
  }

  // --- Optimization 3: completion bounds (DESIGN.md §6), in place of the
  // paper's §5.3.3 leg bounds: the semantic floor, from the best similarity
  // any PoI offers each position (one scan per position, stopped at the
  // first perfect match), and the destination tail. ---
  const bool completion_bounds = feasible && options.use_lower_bounds;
  const bool tail_bound = completion_bounds && dest_dist != nullptr;
  std::vector<double>& best_sim = ws_.best_sim;
  best_sim.clear();
  if (completion_bounds) {
    TraceSpan lb_span(trace, TracePhase::kLowerBound);
    best_sim.assign(static_cast<size_t>(k), 0.0);
    for (int m = 0; m < k; ++m) {
      double& best = best_sim[static_cast<size_t>(m)];
      for (PoiId p = 0; p < g_->num_pois() && best < 1.0; ++p) {
        best = std::max(best, matchers[static_cast<size_t>(m)].SimOfPoi(p));
      }
    }
  }
  const ThresholdPolicy policy(skyline, agg,
                               std::span<const double>(best_sim));
  stats.semantic_floor = policy.SemanticFloor(agg.Identity(), 0);

  // Expands the partial route `node_idx` (kEmpty = the empty route at the
  // start vertex) by one position, via cache or a fresh search. The budget
  // functor and the candidate consumer are passed as template callbacks all
  // the way into the Dijkstra settle loop — no type-erased call anywhere on
  // the hot path.
  const auto expand = [&](int32_t node_idx) {
    TraceSpan expand_span(trace, TracePhase::kExpansion);
    VertexId src;
    Weight len;
    double acc;
    int m;
    if (node_idx == RouteArena::kEmpty) {
      src = query.start;
      len = 0;
      acc = agg.Identity();
      m = 0;
    } else {
      const RouteArena::Node& nd = arena.node(node_idx);
      src = nd.vertex;
      len = nd.length;
      acc = nd.acc;
      m = nd.size;
    }
    const PositionMatcher& matcher = matchers[static_cast<size_t>(m)];
    GenStampedBudget budget{&policy, acc, len, m};

    const bool last = m + 1 == k;
    SimDecisionMemo memo(skyline.generation());

    // Returns true when the candidate was pruned by a condition monotone in
    // the extended length for its similarity (and whose thresholds only
    // tighten for the rest of the query): any later candidate with the
    // same (position, acc, sim) and extended length >= this one is certain
    // to be pruned the same way. consume_filtered records such floors and
    // skips provably-pruned candidates without calling in. Prunes that
    // depend on the candidate's vertex (the destination tail, duplicate-PoI
    // rejects) return false.
    const auto consume = [&](const ExpansionCandidate& cand) {
      ++stats.cand_examined;

      // Locate (or build) the memo slot of this candidate's similarity.
      const uint64_t gen = skyline.generation();
      if (gen != memo.generation) memo.Invalidate(gen);
      const uint64_t bits = std::bit_cast<uint64_t>(cand.sim);
      const int slot = SimDecisionMemo::SlotOf(bits);
      if (memo.sim_bits[slot] != bits) {
        const double nacc = agg.Extend(acc, cand.sim);
        const double nsem = agg.Score(nacc);
        memo.sim_bits[slot] = bits;
        memo.nacc[slot] = nacc;
        memo.nsem[slot] = nsem;
        memo.th[slot] = skyline.Threshold(
            last ? nsem : policy.SemanticFloor(nacc, m + 1));
      }

      const Weight nlen = len + cand.dist;
      if (last) {
        Weight flen = nlen;
        if (dest_dist != nullptr) {
          const Weight tail =
              (*dest_dist)[static_cast<size_t>(cand.vertex)];
          // Unreachable tails are dropped by the filter before consume();
          // this guard only covers a direct call.
          if (tail == kInfWeight) return false;
          flen += tail;
        }
        // DominatedOrEqual(flen, nsem) == Threshold(nsem) <= flen: the
        // memoized staircase lookup replaces the binary search, the
        // comparison is the same. The prune is monotone in flen — which is
        // exactly the probe length the filter records floors on at this
        // position (it adds the destination tail itself), so returning true
        // licenses a floor here whether or not a destination is set.
        if (memo.th[slot] <= flen) {
          ++stats.cand_pruned;
          return true;
        }
        const PoiId poi = g_->PoiAtVertex(cand.vertex);
        if (node_idx != RouteArena::kEmpty && arena.Contains(node_idx, poi)) {
          ++stats.cand_rejected;
          return false;  // Definition 3.4(iii): PoIs must be distinct
        }
        arena.MaterializeInto(node_idx, &ws_.route_buf);
        ws_.route_buf.push_back(poi);
        TraceSpan insert_span(trace, TracePhase::kSkylineInsert);
        skyline.Update(RouteScores{flen, memo.nsem[slot]},
                       std::span<const PoiId>(ws_.route_buf));
      } else {
        // The decision of ShouldPrunePartial(nacc, nlen, m + 1, tail_lb),
        // with the threshold read from the memo and the test that does not
        // read the vertex first.
        const Weight th = memo.th[slot];
        if (nlen >= th) {
          ++stats.cand_pruned;
          return true;
        }
        // The destination tail: per vertex, so it licenses no floor.
        if (tail_bound &&
            nlen + DestTailLowerBound(
                       (*dest_dist)[static_cast<size_t>(cand.vertex)]) >=
                th) {
          ++stats.cand_pruned;
          return false;
        }
        const PoiId poi = g_->PoiAtVertex(cand.vertex);
        if (node_idx != RouteArena::kEmpty && arena.Contains(node_idx, poi)) {
          ++stats.cand_rejected;
          return false;  // Definition 3.4(iii): PoIs must be distinct
        }
        const int32_t idx = arena.Add(node_idx, poi, cand.vertex, nlen,
                                      memo.nacc[slot]);
        qb.push(QbEntry{idx, m + 1, memo.nsem[slot], nlen});
        ++stats.routes_enqueued;
      }
      return false;
    };

    // consume() behind the prune-floor filter: a candidate whose
    // (position, acc, sim) key has a recorded floor at or below its
    // extended length is provably pruned and skipped without calling in;
    // every length-monotone prune consume() reports feeds the table back.
    // The floors live for the whole query (see PruneFloorTable), so every
    // expansion sharing this (position, acc) — adversarial queries have
    // thousands — skips what any earlier one already proved.
    // The probe length is the quantity consume()'s prunes are monotone in:
    // the extended length, PLUS the destination tail at the last position
    // of a destination query (the tail is per-vertex, so it folds into the
    // probe rather than the floor; an unreachable tail drops the candidate
    // outright — consume() would do nothing with it). `last` and the
    // destination are expansion- resp. query-constant, so every floor
    // recorded under a given (position, acc, sim) key used the same probe
    // definition and the comparisons stay exact.
    const uint64_t acc_bits = std::bit_cast<uint64_t>(acc);
    const bool probe_adds_tail = last && dest_dist != nullptr;
    const auto consume_filtered = [&](const ExpansionCandidate& cand) {
      Weight plen = len + cand.dist;
      if (probe_adds_tail) {
        const Weight tail = (*dest_dist)[static_cast<size_t>(cand.vertex)];
        if (tail == kInfWeight) {
          ++stats.cand_floor_skipped;
          return;
        }
        plen += tail;
      }
      if (ws_.prune_floors.Skippable(acc_bits, m, cand.sim, plen)) {
        ++stats.cand_floor_skipped;
        return;
      }
      if (consume(cand)) ws_.prune_floors.Note(acc_bits, m, cand.sim, plen);
    };

    // Replays a dist-sorted candidate stream — a cache hit or a bucket
    // scan, with the cache on or off. Budgets only shrink within an
    // expansion, so the first candidate at or beyond the budget ends it
    // (Lemma 5.3), exactly where a graph search would have stopped.
    const auto replay = [&](std::span<const ExpansionCandidate> cands) {
      for (const ExpansionCandidate& c : cands) {
        if (c.dist >= budget()) return;
        consume_filtered(c);
      }
    };

    const bool use_bucket = bucket_backend;
    bool is_rerun = false;
    if (options.use_cache) {
      const MdijkstraCache::Entry* entry = cache.Find(src, m);
      if (entry != nullptr && (entry->meta.exhausted ||
                               entry->meta.covered_radius >= budget())) {
        ++stats.mdijkstra_cache_hits;
        if (exp != nullptr) {
          ++exp->positions[static_cast<size_t>(m)].cache_replays;
        }
        replay(cache.CandidatesOf(*entry));
        return;
      }
      if (entry != nullptr) {
        ++stats.cache_reruns;
        is_rerun = true;
      }
    }

    if (use_bucket) {
      // Bucket backend: materialize the (dist, vertex)-ordered matching
      // stream up to the current budget — or exhaustively, when the budget
      // prunes nothing — then stream it with the budget re-checked between
      // candidates, exactly like a cache replay. The committed entry
      // carries the scan's coverage, so repeats and reruns follow the
      // standard cache protocol (an exhausted commit never reruns).
      ++stats.retriever_bucket_runs;
      if (exp != nullptr) {
        ++exp->positions[static_cast<size_t>(m)].bucket_runs;
      }
      TraceSpan retrieval_span(trace, TracePhase::kRetrieval);
      // First scans cap the exact-resum work at the current budget; a rerun
      // means the budget grew past a capped scan, so it goes exhaustive —
      // at most two scans per (source, position), ever.
      const ExpansionOutcome outcome =
          bucket_dist->retriever.Collect(src, matcher, ws_.oracle_ws,
                                         ws_.bucket_scan, *xc,
                                         is_rerun ? kInfWeight : budget(),
                                         &stats);
      const std::vector<ExpansionCandidate>& cands = ws_.bucket_scan.cands;
      if (options.use_cache) {
        std::vector<ExpansionCandidate>& pool = cache.pool();
        const size_t pool_offset = pool.size();
        pool.insert(pool.end(), cands.begin(), cands.end());
        cache.Commit(src, m, pool_offset, outcome);
      }
      replay(cands);
      return;
    }

    // Graph search. In deferred mode every expansion the bucket plan leaves
    // runs on a resumable slot: one suspended search per hot source serves
    // every position, and a budget beyond the suspended coverage extends
    // the search incrementally instead of re-settling its prefix. With the
    // Lemma 5.5 cuts on, a fresh search runs. Candidates stream into the
    // cache's shared pool (no per-expansion vector); with caching off,
    // nothing is collected at all.
    TraceSpan retrieval_span(trace, TracePhase::kRetrieval);
    DijkstraRunStats run_stats;
    std::vector<ExpansionCandidate>* out =
        options.use_cache ? &cache.pool() : nullptr;
    const size_t pool_offset = options.use_cache ? cache.pool().size() : 0;
    ExpansionOutcome outcome;
    if (needs_deferred_lemma55) {
      ++stats.retriever_resume_runs;
      if (exp != nullptr) {
        ++exp->positions[static_cast<size_t>(m)].resume_runs;
      }
      outcome = RetrieveResumable(*g_, matcher, resume_pool,
                                  *resume_pool.FindOrCreate(src), budget,
                                  consume_filtered, out, &run_stats);
    } else {
      ++stats.mdijkstra_runs;
      if (exp != nullptr) {
        ++exp->positions[static_cast<size_t>(m)].fresh_searches;
      }
      outcome = RunExpansionInto(*g_, matcher, src, budget,
                                 /*apply_lemma55=*/true, ws_.expansion, out,
                                 consume_filtered, &run_stats);
      if (stats.mdijkstra_runs == 1) {
        stats.first_search_weight_sum = run_stats.weight_sum;
      }
    }
    stats.vertices_settled += run_stats.settled;
    stats.edges_relaxed += run_stats.relaxed;
    stats.weight_sum += run_stats.weight_sum;
    if (options.use_cache) cache.Commit(src, m, pool_offset, outcome);
  };

  // Algorithm 1: seed with the first expansion, then drain Q_b. The
  // wall-clock budget is polled every kTimeoutCheckInterval dequeues (and
  // not at all for the default infinite budget).
  if (feasible) {
    expand(RouteArena::kEmpty);
    const bool has_time_budget = std::isfinite(options.time_budget_seconds);
    int64_t pops_until_timeout_check = 0;
    TraceSpan drain_span(trace, TracePhase::kQbDrain);
    while (!qb.empty()) {
      if (has_time_budget && --pops_until_timeout_check < 0) {
        pops_until_timeout_check = kTimeoutCheckInterval - 1;
        if (timer.ElapsedSeconds() > options.time_budget_seconds) {
          stats.timed_out = true;
          break;
        }
      }
      const int32_t node = qb.pop();
      ++stats.routes_dequeued;
      const RouteArena::Node& nd = arena.node(node);
      const Weight tail_lb =
          tail_bound ? DestTailLowerBound(
                           (*dest_dist)[static_cast<size_t>(nd.vertex)])
                     : 0;
      if (policy.ShouldPrunePartial(nd.acc, nd.length, nd.size, tail_lb)) {
        ++stats.routes_pruned;
        continue;
      }
      expand(node);
    }
  }

  stats.peak_queue_size = static_cast<int64_t>(qb.peak_size());
  stats.route_nodes = arena.num_nodes();
  stats.logical_peak_bytes =
      arena.MemoryBytes() +
      static_cast<int64_t>(qb.peak_size() * sizeof(QbEntry)) +
      skyline.MemoryBytes() + cache.MemoryBytes() +
      ws_.prune_floors.MemoryBytes();

  // The cache is the one writer of warm-state events; the query's share is
  // the delta of its counters over this run.
  const SharedCacheCounters xc_after = xc->Counters();
  stats.bucket_fwd_reuses = xc_after.fwd_hits - xc_before.fwd_hits;
  stats.bucket_fwd_searches = xc_after.fwd_misses - xc_before.fwd_misses;
  stats.fwd_evictions = xc_after.fwd_evictions - xc_before.fwd_evictions;
  stats.resume_reuses = xc_after.resume_reuses - xc_before.resume_reuses;
  stats.resume_evictions =
      xc_after.resume_evictions - xc_before.resume_evictions;
  if (exp != nullptr) exp->xcache_bytes = xc->ResidentBytes();

  stats.skyline_size = skyline.size();
  result.routes = skyline.TakeRoutes();  // move, not deep copy
  if (trace != nullptr) {
    query_span.Close();  // the root span must land before the aggregate cut
    stats.phases = trace->aggregates().DiffSince(phases_before);
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace skysr
