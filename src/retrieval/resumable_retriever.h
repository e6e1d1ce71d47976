// Resumable expansion state: flat-array suspend/resume Dijkstra per hot
// source — the engine's graph-search backend in deferred-Lemma-5.5 mode.
//
// In deferred-Lemma-5.5 mode the expansion traversal from a source depends
// only on the source (never on the position's matcher), so one suspended
// search serves every position: its settle log replays, filtered through
// each position's matcher, as a branch-predictable array scan. Where a
// fresh search must re-settle the whole prefix whenever a later budget
// exceeds the covered radius, a resumable slot keeps the search's live
// frontier (heap) and its settle log, so a larger budget just continues
// popping. The suspension point is read off the heap top BEFORE settling:
// the log therefore contains exactly the settles a fresh search would emit
// below any budget it has seen, and the covered radius is the next settle's
// distance (the tightest sound bound).
//
// Bit-exactness: the settle order (distance, vertex-id tie-break) and the
// relaxation arithmetic are identical to graph/dijkstra_runner.h. The one
// deliberate difference is that resumable searches never refuse relaxations
// at the budget (a refused push could not be recovered on resume); this
// costs heap traffic but cannot change emissions — a vertex whose tentative
// distance ever reached the budget can only settle at or beyond every later
// budget, where both flavors have already stopped.
//
// Memory: a slot costs 16 B per logged settle plus 16 B per frontier
// entry — proportional to the region it has explored. The O(|V|) distance
// labels and settled marks live once per pool, in one flat workspace that
// holds the labels of the slot that resumed last. A resume of any other
// slot first rebuilds that slot's labels in O(|log| + |heap|): every log
// record is settled at its distance, and every unsettled vertex gets its
// smallest heap entry. That is exact — a label only ever decreases, each
// decrease pushes one heap entry, and an unsettled vertex's entries are
// never popped — and the search reads no parent pointers.
//
// graph/resumable_dijkstra.h keeps the same state in hash maps for the PNE
// baseline's thousands of cheap instances; tests/retrieval_test.cc pins the
// two implementations' settle sequences against each other.

#ifndef SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_
#define SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_

#include <bit>
#include <memory>
#include <vector>

#include "core/modified_dijkstra.h"
#include "graph/dijkstra_workspace.h"
#include "graph/graph.h"
#include "util/logging.h"

namespace skysr {

/// One suspended expansion search: its frontier and settle log only. The
/// distance labels it resumes from live in the owning pool's workspace.
struct ResumableSlot {
  VertexId source = kInvalidVertex;
  DaryHeap<DijkstraHeapItem> heap;     // live frontier at suspension
  std::vector<SettleRecord> log;       // settles so far, in settle order
  Weight covered = 0;                  // next settle is at >= this
  bool exhausted = false;
  uint8_t ref = 0;                     // CLOCK bit

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(
        log.capacity() * sizeof(SettleRecord) +
        heap.items().capacity() * sizeof(DijkstraHeapItem));
  }
};

/// Pool of resumable slots, owned by a SharedQueryCache
/// (src/cache/shared_query_cache.h). Suspended searches survive across
/// queries, with CLOCK eviction at the slot bound. Sound because a slot's
/// state is a pure function of (graph, source) and replays budget-filter
/// the log, so a longer-than-budget log is harmless. An engine with no
/// cache attached clears its own pool before every query.
///
/// The pool owns the one O(|V|) label workspace its slots resume on, and
/// remembers whose labels it holds (see LoadLabels).
class ResumablePool {
 public:
  static constexpr int kDefaultSlots = 8;

  /// Call once per query: (re)applies the slot bound (at least one slot)
  /// and clears every live slot's CLOCK bit, so this query's touches count
  /// as fresh reuses. Suspended searches survive unless the bound shrinks.
  void Prepare(int max_slots) {
    SKYSR_DCHECK(max_slots > 0);
    if (max_slots < max_slots_) Clear();
    max_slots_ = max_slots;
    for (int i = 0; i < live_; ++i) slots_[static_cast<size_t>(i)]->ref = 0;
  }

  /// Drops every suspended search, keeping the bound and allocations.
  void Clear() {
    live_ = 0;
    hand_ = 0;
    loaded_ = nullptr;
  }

  /// The slot suspended for `source`, creating one while the pool has room
  /// and otherwise evicting the coldest slot by CLOCK and reassigning it.
  ResumableSlot* FindOrCreate(VertexId source) {
    for (int i = 0; i < live_; ++i) {
      ResumableSlot* s = slots_[static_cast<size_t>(i)].get();
      if (s->source == source) {
        if (s->ref == 0) {
          s->ref = 1;
          ++reuses_;
        }
        return s;
      }
    }
    int idx;
    if (live_ < max_slots_) {
      if (static_cast<size_t>(live_) == slots_.size()) {
        slots_.push_back(std::make_unique<ResumableSlot>());
      }
      idx = live_++;
    } else {
      while (slots_[static_cast<size_t>(hand_)]->ref != 0) {
        slots_[static_cast<size_t>(hand_)]->ref = 0;
        hand_ = (hand_ + 1) % live_;
      }
      idx = hand_;
      hand_ = (hand_ + 1) % live_;
      ++evictions_;
    }
    ResumableSlot* slot = slots_[static_cast<size_t>(idx)].get();
    if (loaded_ == slot) loaded_ = nullptr;  // labels of the evicted search
    slot->source = source;
    slot->heap.clear();
    slot->log.clear();
    slot->covered = 0;
    slot->exhausted = false;
    slot->ref = 1;
    slot->heap.push(
        DijkstraHeapItem{std::bit_cast<uint64_t>(Weight{0}), source,
                         kInvalidVertex});
    return slot;
  }

  /// The label workspace holding `slot`'s suspended search, rebuilt from
  /// the slot's log and frontier unless it already holds them.
  DijkstraWorkspace& LoadLabels(const Graph& g, const ResumableSlot& slot) {
    if (loaded_ == &slot) return ws_;
    ws_.Prepare(g.num_vertices());  // epoch bump drops the previous labels
    for (const SettleRecord& rec : slot.log) {
      ws_.SetDist(rec.vertex, rec.dist, kInvalidVertex);
      ws_.MarkSettled(rec.vertex);
    }
    for (const DijkstraHeapItem& item : slot.heap.items()) {
      if (ws_.Settled(item.vertex)) continue;  // stale entry
      const Weight d = std::bit_cast<Weight>(item.dist_bits);
      if (d < ws_.Dist(item.vertex)) ws_.SetDist(item.vertex, d, item.parent);
    }
    loaded_ = &slot;
    ++label_loads_;
    return ws_;
  }

  int live() const { return live_; }
  int64_t reuses() const { return reuses_; }
  int64_t evictions() const { return evictions_; }
  int64_t label_loads() const { return label_loads_; }

  /// The shared workspace once, plus every slot's log and frontier.
  int64_t MemoryBytes() const {
    int64_t bytes = ws_.MemoryBytes();
    for (const auto& s : slots_) bytes += s->MemoryBytes();
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<ResumableSlot>> slots_;  // stable addresses
  DijkstraWorkspace ws_;                     // labels of *loaded_
  const ResumableSlot* loaded_ = nullptr;
  int live_ = 0;
  int hand_ = 0;  // CLOCK hand
  int max_slots_ = kDefaultSlots;
  int64_t reuses_ = 0;       // cross/within-query slot hits
  int64_t evictions_ = 0;    // CLOCK displacements
  int64_t label_loads_ = 0;  // LoadLabels rebuilds
};

/// Serves one expansion from a resumable slot: replays the logged settle
/// prefix through `matcher` (budget re-checked between records, exactly
/// like a cache replay), then — if the budget is not yet reached —
/// resumes the suspended Dijkstra on the pool's label workspace, settling
/// and logging new vertices until the next settle would reach the budget.
/// Emissions are bit-identical to a fresh matcher-filtered search under the
/// same budget trajectory. Emitted candidates additionally append to `out`
/// when non-null (cache fill).
///
/// Both callbacks are forwarding references invoked directly, monomorphized
/// into the loops like RunExpansionInto.
template <typename BudgetFn, typename OnCandidate>
ExpansionOutcome RetrieveResumable(const Graph& g,
                                   const PositionMatcher& matcher,
                                   ResumablePool& pool, ResumableSlot& slot,
                                   BudgetFn&& budget_fn,
                                   OnCandidate&& on_candidate,
                                   std::vector<ExpansionCandidate>* out,
                                   DijkstraRunStats* stats_out) {
  const auto emit = [&](VertexId v, Weight d, double sim) {
    const ExpansionCandidate cand{v, d, sim};
    if (out != nullptr) out->push_back(cand);
    on_candidate(cand);
  };

  // Replay the logged prefix (a true Dijkstra settle prefix). Budgets are
  // non-increasing within an expansion, so the first record at or beyond
  // the budget ends the replay — Lemma 5.3, as in the fresh search.
  for (size_t i = 0; i < slot.log.size(); ++i) {
    const SettleRecord rec = slot.log[i];
    if (rec.dist >= budget_fn()) {
      return ExpansionOutcome{rec.dist, false};
    }
    const double sim = matcher.SimOfVertex(rec.vertex);
    if (sim > 0) emit(rec.vertex, rec.dist, sim);
  }

  // The log is spent. A suspended search's smallest live frontier entry is
  // at `covered`, so a budget at or below it settles nothing: answer
  // without touching the labels.
  if (slot.exhausted || slot.covered >= budget_fn()) {
    return ExpansionOutcome{slot.covered, slot.exhausted};
  }

  // Resume the suspended search.
  DijkstraWorkspace& ws = pool.LoadLabels(g, slot);
  DijkstraRunStats stats;
  DaryHeap<DijkstraHeapItem>& heap = slot.heap;
  while (!slot.exhausted) {
    while (!heap.empty() && ws.Settled(heap.top().vertex)) {
      heap.pop();  // stale (lazy deletion)
    }
    if (heap.empty()) {
      slot.exhausted = true;
      slot.covered = kInfWeight;
      break;
    }
    const Weight next = std::bit_cast<Weight>(heap.top().dist_bits);
    if (next >= budget_fn()) {
      slot.covered = next;  // suspend BEFORE settling the breaking vertex
      break;
    }
    const DijkstraHeapItem item = heap.pop();
    ws.MarkSettled(item.vertex);
    ++stats.settled;
    if (next > stats.max_settled_dist) stats.max_settled_dist = next;
    slot.log.push_back(SettleRecord{item.vertex, next});
    const double sim = matcher.SimOfVertex(item.vertex);
    if (sim > 0) emit(item.vertex, next, sim);
    for (const Neighbor& nb : g.OutEdges(item.vertex)) {
      if (ws.Settled(nb.to)) continue;
      const Weight nd = next + nb.weight;
      if (nd < ws.Dist(nb.to)) {
        ws.SetDist(nb.to, nd, item.vertex);
        heap.push(DijkstraHeapItem{std::bit_cast<uint64_t>(nd), nb.to,
                                   item.vertex});
        ++stats.relaxed;
        stats.weight_sum += nb.weight;
      }
    }
  }
  if (stats_out != nullptr) *stats_out += stats;
  return ExpansionOutcome{slot.covered, slot.exhausted};
}

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_
