// Engine-owned, query-lifetime state reused across queries: the skyline,
// route arena, bulk queue Q_b, on-the-fly cache (flat table + candidate
// pool), the engine's own warm-state cache, matcher/sigma/destination
// staging and the scratch of every sub-search (expansion, NNinit, lower
// bounds, oracle). In steady state a query allocates only what it returns
// (the skyline routes) plus O(k) matcher tables — everything sized by the
// search itself keeps its capacity from previous queries.
//
// The workspace is single-threaded by construction: it lives inside a
// BssrEngine and inherits the one-engine-per-thread contract. QueryService
// workers each own an engine, so batch/serve traffic reuses these buffers
// for the whole worker lifetime.

#ifndef SKYSR_CORE_QUERY_WORKSPACE_H_
#define SKYSR_CORE_QUERY_WORKSPACE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/shared_query_cache.h"
#include "core/feasibility.h"
#include "core/lower_bound.h"
#include "core/mdijkstra_cache.h"
#include "core/modified_dijkstra.h"
#include "core/nn_init.h"
#include "core/query.h"
#include "core/route.h"
#include "core/skyline_set.h"
#include "graph/dijkstra_workspace.h"
#include "index/distance_oracle.h"
#include "retrieval/bucket_retriever.h"
#include "util/dary_heap.h"
#include "util/stamped_array.h"

namespace skysr {

/// Queue entry for the bulk priority queue Q_b.
struct QbEntry {
  int32_t node;
  int32_t size;
  double semantic;
  Weight length;
};

/// §5.3.2: the proposed discipline dequeues the largest route first, then the
/// semantically best, then the shortest; the distance-based baseline orders
/// purely by length. Node-id tie-breaks keep runs deterministic.
struct QbLess {
  QueueDiscipline discipline;
  bool operator()(const QbEntry& a, const QbEntry& b) const {
    if (discipline == QueueDiscipline::kProposed) {
      if (a.size != b.size) return a.size > b.size;
      if (a.semantic != b.semantic) return a.semantic < b.semantic;
      if (a.length != b.length) return a.length < b.length;
    } else {
      if (a.length != b.length) return a.length < b.length;
    }
    return a.node < b.node;
  }
};

/// The bulk queue Q_b. For the proposed discipline the size key is the
/// STRICT primary sort, so the queue keeps one heap per route size and pops
/// from the largest non-empty size — the identical total order at a
/// fraction of the sift depth: the size-asc breadth accumulates in the
/// size-1 heap and is popped once each, while the eagerly-drained deeper
/// heaps (where most pops land on heavy queries) stay tiny. The
/// distance-based discipline ignores size and keeps the single heap.
class QbQueue {
 public:
  /// Entry of a per-size heap: size is the bucket index. Semantic and
  /// length are non-negative doubles, so their IEEE bit patterns order
  /// identically — the sift loops run on 1-cycle integer compares.
  struct SlimEntry {
    uint64_t semantic_bits;
    uint64_t length_bits;
    int32_t node;
  };
  struct SlimLess {
    bool operator()(const SlimEntry& a, const SlimEntry& b) const {
      if (a.semantic_bits != b.semantic_bits) {
        return a.semantic_bits < b.semantic_bits;
      }
      if (a.length_bits != b.length_bits) {
        return a.length_bits < b.length_bits;
      }
      return a.node < b.node;
    }
  };

  /// Clears and configures for a query of sequence size `k` (enqueued route
  /// sizes are 1..k-1). Keeps all heap capacity.
  void Reset(QueueDiscipline discipline, int k) {
    discipline_ = discipline;
    flat_.clear();
    flat_.set_less(QbLess{discipline});
    if (buckets_.size() < static_cast<size_t>(k)) {
      buckets_.resize(static_cast<size_t>(k));
    }
    for (auto& b : buckets_) b.clear();
    top_size_ = 0;
    size_ = 0;
    peak_size_ = 0;
  }

  bool empty() const { return size_ == 0; }

  void push(const QbEntry& e) {
    // Both keys must be non-negative for the bit-pattern ordering to match
    // the double ordering of QbLess. -0.0 passes the check (it compares
    // equal to 0.0) but its sign bit would sort it as the LARGEST uint64,
    // diverging from the flat path where -0.0 == 0.0 — adding +0.0 maps
    // -0.0 to +0.0 and leaves every other non-negative value unchanged.
    SKYSR_DCHECK(e.semantic >= 0.0);
    SKYSR_DCHECK(e.length >= 0.0);
    ++size_;
    if (size_ > peak_size_) peak_size_ = size_;
    if (discipline_ != QueueDiscipline::kProposed) {
      flat_.push(e);
      return;
    }
    buckets_[static_cast<size_t>(e.size)].push(
        SlimEntry{std::bit_cast<uint64_t>(e.semantic + 0.0),
                  std::bit_cast<uint64_t>(e.length + 0.0), e.node});
    if (e.size > top_size_) top_size_ = e.size;
  }

  QbEntry pop() {
    SKYSR_DCHECK(size_ > 0);
    --size_;
    if (discipline_ != QueueDiscipline::kProposed) {
      return flat_.pop();
    }
    // Checked downward scan: stops at bucket 0 instead of underflowing if
    // the size accounting ever drifts out of sync with the buckets.
    while (top_size_ > 0 && buckets_[static_cast<size_t>(top_size_)].empty()) {
      --top_size_;
    }
    SKYSR_DCHECK(top_size_ >= 0);
    SKYSR_DCHECK(!buckets_[static_cast<size_t>(top_size_)].empty());
    const int32_t size = top_size_;
    SlimEntry e = buckets_[static_cast<size_t>(size)].pop();
    // Lower the bound eagerly when this pop drained the bucket, so pushes at
    // smaller sizes don't leave every later pop re-scanning the stale upper
    // range.
    while (top_size_ > 0 && buckets_[static_cast<size_t>(top_size_)].empty()) {
      --top_size_;
    }
    return QbEntry{e.node, size, std::bit_cast<double>(e.semantic_bits),
                   std::bit_cast<Weight>(e.length_bits)};
  }

  size_t peak_size() const { return peak_size_; }

 private:
  QueueDiscipline discipline_ = QueueDiscipline::kProposed;
  DaryHeap<QbEntry, QbLess> flat_{QbLess{QueueDiscipline::kProposed}};
  std::vector<DaryHeap<SlimEntry, SlimLess>> buckets_;  // index = route size
  int32_t top_size_ = 0;  // upper bound on the largest non-empty bucket
  size_t size_ = 0;
  size_t peak_size_ = 0;
};

/// All reusable per-query state of one engine.
struct QueryWorkspace {
  SkylineSet skyline;
  RouteArena arena;
  QbQueue qb;
  MdijkstraCache cache;
  // Query-lifetime (position, acc, sim) -> extended-length prune floors;
  // candidates at or beyond a floor skip consume() entirely (see
  // candidate_stream.h for why the floors transfer across expansions).
  PruneFloorTable prune_floors;

  // PoI-retrieval backends (src/retrieval/): per-query bucket scan state,
  // and the warm state (forward searches, resumable slots) an engine with
  // no SharedQueryCache attached uses — invalidated before every query.
  BucketScanState bucket_scan;
  SharedQueryCache xcache;

  // Sub-search scratch.
  ExpansionScratch expansion;
  DijkstraWorkspace dijkstra_ws;  // NNinit chain + destination distances
  OracleWorkspace oracle_ws;
  NnInitScratch nn_init;
  LowerBoundScratch lower_bound;
  FeasibilityScratch feasibility;

  // Per-query staging.
  std::vector<PositionMatcher> matchers;
  // One lazily-filled PoI-similarity memo per sequence position, attached
  // to the matchers (PositionMatcher::AttachSimCache). Epoch-stamped:
  // resetting for the next query is O(1).
  std::vector<StampedArray<double>> sim_memo;
  std::vector<double> sigma_suffix;
  std::vector<double> best_sim;  // per position: the semantic floor's σ*
  std::vector<Weight> dest_dist;
  std::vector<PoiId> route_buf;  // complete-route materialization
  LowerBounds lb;
};

}  // namespace skysr

#endif  // SKYSR_CORE_QUERY_WORKSPACE_H_
