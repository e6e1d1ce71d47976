#include "baseline/osr_pne.h"

#include <memory>
#include <unordered_map>

#include "core/route.h"
#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "graph/resumable_dijkstra.h"
#include "util/dary_heap.h"
#include "util/timer.h"

namespace skysr {
namespace {

/// Memoized incremental nearest-neighbor provider: the rank-th closest PoI
/// perfectly matching a position, from a given source vertex.
class IncrementalNn {
 public:
  IncrementalNn(const Graph& g, const std::vector<PositionMatcher>& matchers)
      : g_(g), matchers_(matchers) {}

  struct Hit {
    VertexId vertex;
    PoiId poi;
    Weight dist;
  };

  /// rank 0 = nearest. Returns nullopt when fewer matches exist.
  std::optional<Hit> Get(VertexId source, int position, int rank) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 8) |
        static_cast<uint32_t>(position);
    auto [it, inserted] = states_.try_emplace(key);
    State& st = it->second;
    if (inserted) st.search = std::make_unique<ResumableDijkstra>(g_, source);
    const PositionMatcher& matcher = matchers_[static_cast<size_t>(position)];
    while (static_cast<int>(st.found.size()) <= rank && !st.exhausted) {
      const auto settle = st.search->Next();
      if (!settle) {
        st.exhausted = true;
        break;
      }
      ++settled_;
      const PoiId poi = g_.PoiAtVertex(settle->vertex);
      if (poi != kInvalidPoi && matcher.IsPerfect(poi)) {
        st.found.push_back(Hit{settle->vertex, poi, settle->dist});
      }
    }
    if (rank < static_cast<int>(st.found.size())) {
      return st.found[static_cast<size_t>(rank)];
    }
    return std::nullopt;
  }

  int64_t settled() const { return settled_; }

  int64_t MemoryBytes() const {
    int64_t bytes = 0;
    for (const auto& [k, st] : states_) {
      bytes += 64 + st.search->MemoryBytes() +
               static_cast<int64_t>(st.found.capacity() * sizeof(Hit));
    }
    return bytes;
  }

 private:
  struct State {
    std::unique_ptr<ResumableDijkstra> search;
    std::vector<Hit> found;
    bool exhausted = false;
  };
  const Graph& g_;
  const std::vector<PositionMatcher>& matchers_;
  std::unordered_map<uint64_t, State> states_;
  int64_t settled_ = 0;
};

struct PneItem {
  Weight len;
  int32_t node;
  int32_t size;
  int32_t rank;  // NN rank of the last PoI w.r.t. its predecessor
  // Complete routes under a destination pop twice: first as a candidate
  // keyed by the tail-free length (a lower bound of the total, preserving
  // heap order and lazy NN advancement), then re-pushed with the true
  // start-to-destination total.
  bool tailed;
  bool operator<(const PneItem& o) const {
    if (len != o.len) return len < o.len;
    return node < o.node;
  }
};

}  // namespace

OsrResult RunOsrPne(const Graph& g,
                    const std::vector<PositionMatcher>& matchers,
                    VertexId start, std::optional<VertexId> dest,
                    double time_budget_seconds,
                    const ChOracle* oracle) {
  WallTimer timer;
  OsrResult result;
  const int k = static_cast<int>(matchers.size());

  DestTail dest_tail(g, dest, oracle);

  IncrementalNn nn(g, matchers);
  RouteArena arena;
  DaryHeap<PneItem> heap;

  // Extends `parent` (route of size `position`) with its rank>=`from_rank`
  // nearest neighbor that is not already used; pushes the result. All keys
  // are tail-free, so pushes stay in NN rank order and the incremental NN
  // stream is advanced one rank at a time.
  const auto spawn = [&](int32_t parent, int position, int from_rank) {
    const VertexId src = parent == RouteArena::kEmpty
                             ? start
                             : arena.node(parent).vertex;
    const Weight base_len =
        parent == RouteArena::kEmpty ? 0 : arena.node(parent).length;
    int rank = from_rank;
    while (true) {
      const auto hit = nn.Get(src, position, rank);
      if (!hit) return;
      if (!arena.Contains(parent, hit->poi)) {
        const int32_t node = arena.Add(parent, hit->poi, hit->vertex,
                                       base_len + hit->dist, 1.0);
        heap.push(PneItem{base_len + hit->dist, node, position + 1, rank,
                          /*tailed=*/false});
        return;
      }
      ++rank;
    }
  };

  spawn(RouteArena::kEmpty, 0, 0);
  int64_t pops = 0;
  Weight best_total = kInfWeight;
  int32_t best_node = RouteArena::kEmpty;
  while (!heap.empty()) {
    if ((++pops & 255) == 0 && timer.ElapsedSeconds() > time_budget_seconds) {
      result.timed_out = true;
      break;
    }
    const PneItem item = heap.pop();
    if (item.size == k) {
      // NN rank order (leg distance) does NOT order completed totals once a
      // destination tail is added — the tail varies per PoI — so a complete
      // route first pops as a tail-free candidate (a lower bound of its
      // total): it advances its sibling chain and re-enters the heap with
      // the true total. Every unexplored completion is therefore covered by
      // a heap entry lower-bounding it, and the first TOTAL that pops is
      // the optimum. Without a destination the tail-free length is already
      // the total.
      if (!dest || item.tailed) {
        best_total = item.len;
        best_node = item.node;
        break;
      }
      spawn(arena.node(item.node).parent, item.size - 1, item.rank + 1);
      const Weight tail = dest_tail.Get(arena.node(item.node).vertex);
      if (tail != kInfWeight) {
        heap.push(PneItem{item.len + tail, item.node, item.size, item.rank,
                          /*tailed=*/true});
      }
      continue;
    }
    // Child: greedy extension with the nearest next-position PoI.
    spawn(item.node, item.size, 0);
    // Sibling: same prefix, next-nearest PoI in place of the last one.
    spawn(arena.node(item.node).parent, item.size - 1, item.rank + 1);
  }
  if (best_node != RouteArena::kEmpty && !result.timed_out) {
    result.pois = arena.Materialize(best_node);
    result.length = best_total;
  }

  result.vertices_settled = nn.settled();
  result.peak_queue_size = static_cast<int64_t>(heap.peak_size());
  result.route_nodes = arena.num_nodes();
  result.logical_peak_bytes =
      static_cast<int64_t>(heap.peak_size() * sizeof(PneItem)) +
      arena.MemoryBytes() + nn.MemoryBytes();
  return result;
}

}  // namespace skysr
