#include "baseline/osr_dijkstra.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "util/dary_heap.h"
#include "util/rng.h"
#include "util/timer.h"

namespace skysr {
namespace {

// Faithful to the original Dijkstra-based OSR: every queue entry carries its
// partial route by value. This is what makes the approach memory-hungry
// (Table 6 of the paper) — do not "optimize" it into a shared-prefix arena,
// the blow-up is the point of the baseline.
struct Item {
  Weight len;
  VertexId vertex;
  int32_t progress;
  uint64_t shared_mask;  // used PoIs that other positions could still want
  std::vector<PoiId> route;

  bool operator<(const Item& o) const {
    if (len != o.len) return len < o.len;
    if (vertex != o.vertex) return vertex < o.vertex;
    return progress < o.progress;
  }
};

int64_t ItemBytes(const Item& item) {
  return static_cast<int64_t>(sizeof(Item) +
                              item.route.capacity() * sizeof(PoiId));
}

/// Exact identity of a search state when positions can share PoIs.
struct StateKey {
  uint64_t mask;
  int64_t flat;  // progress * n + vertex

  bool operator==(const StateKey& o) const {
    return mask == o.mask && flat == o.flat;
  }
};

struct StateKeyHash {
  size_t operator()(const StateKey& k) const {
    uint64_t s = k.mask ^ (static_cast<uint64_t>(k.flat) * 0x9E3779B97F4A7C15ULL);
    return static_cast<size_t>(SplitMix64(s));
  }
};

}  // namespace

OsrResult RunOsrDijkstra(const Graph& g,
                         const std::vector<PositionMatcher>& matchers,
                         VertexId start, std::optional<VertexId> dest,
                         double time_budget_seconds) {
  WallTimer timer;
  OsrResult result;
  const int k = static_cast<int>(matchers.size());
  const int64_t n = g.num_vertices();
  const int64_t layers = k + 1;

  // PoIs that perfectly match two or more positions break the classic
  // (vertex, progress) state space: of two routes reaching the same state,
  // one may have consumed a PoI the other still needs (Definition 3.4
  // demands distinct route PoIs), so their futures differ. Give each such
  // "shared" PoI a bit and settle on (used-shared-set, progress, vertex)
  // instead; PoIs perfect for at most one position can never be re-chosen
  // and need no tracking. In the paper's distinct-tree workloads no PoI is
  // shared and the flat fast path below is used. Beyond 64 shared PoIs the
  // search settles on the exact (vertex, progress, used-PoI-set) state —
  // slower, but still exact and, crucially, a FINITE state space, so the
  // search terminates even under the default infinite time budget.
  std::vector<int32_t> shared_bit(static_cast<size_t>(g.num_pois()), -1);
  int num_shared = 0;
  for (PoiId p = 0; p < g.num_pois(); ++p) {
    int perfect_positions = 0;
    for (const PositionMatcher& m : matchers) {
      if (m.IsPerfect(p)) ++perfect_positions;
    }
    if (perfect_positions >= 2) {
      shared_bit[static_cast<size_t>(p)] = num_shared++;
    }
  }
  const bool flat_states = num_shared == 0;
  const bool track_masks = num_shared > 0 && num_shared <= 64;

  std::vector<char> settled;
  if (flat_states) settled.assign(static_cast<size_t>(n * layers), 0);
  std::unordered_set<StateKey, StateKeyHash> settled_masked;
  // Fallback identity for > 64 shared PoIs: the exact used-PoI set (route
  // order does not affect the future, so a sorted copy canonicalizes it).
  std::set<std::pair<int64_t, std::vector<PoiId>>> settled_sets;
  const auto flat_of = [n](VertexId v, int32_t progress) {
    return static_cast<int64_t>(progress) * n + static_cast<int64_t>(v);
  };
  const auto used_set_key = [&](VertexId v, int32_t progress,
                                const Item& ctx) {
    std::vector<PoiId> used(ctx.route);
    std::sort(used.begin(), used.end());
    return std::make_pair(flat_of(v, progress), std::move(used));
  };
  // `ctx` supplies the route/mask identity; `v`/`progress` may differ from
  // ctx's own (the neighbor pre-check probes the state a push would reach).
  const auto is_settled = [&](VertexId v, int32_t progress,
                              const Item& ctx) {
    if (flat_states) {
      return settled[static_cast<size_t>(flat_of(v, progress))] != 0;
    }
    if (track_masks) {
      return settled_masked.count(
                 StateKey{ctx.shared_mask, flat_of(v, progress)}) != 0;
    }
    return settled_sets.count(used_set_key(v, progress, ctx)) != 0;
  };
  const auto settle = [&](const Item& item) {
    if (flat_states) {
      settled[static_cast<size_t>(flat_of(item.vertex, item.progress))] = 1;
    } else if (track_masks) {
      settled_masked.insert(StateKey{
          item.shared_mask, flat_of(item.vertex, item.progress)});
    } else {
      settled_sets.insert(used_set_key(item.vertex, item.progress, item));
    }
  };

  DaryHeap<Item> heap;
  int64_t queue_bytes = 0;
  int64_t peak_queue_bytes = 0;
  const auto push = [&](Item&& item) {
    queue_bytes += ItemBytes(item);
    peak_queue_bytes = std::max(peak_queue_bytes, queue_bytes);
    heap.push(std::move(item));
  };

  push(Item{0, start, 0, 0, {}});
  int64_t pops = 0;
  while (!heap.empty()) {
    if ((++pops & 1023) == 0 &&
        timer.ElapsedSeconds() > time_budget_seconds) {
      result.timed_out = true;
      break;
    }
    Item item = heap.pop();
    queue_bytes -= ItemBytes(item);
    if (is_settled(item.vertex, item.progress, item)) continue;
    settle(item);
    ++result.vertices_settled;

    if (item.progress == k && (!dest || item.vertex == *dest)) {
      result.pois = std::move(item.route);
      result.length = item.len;
      break;
    }

    // Zero-cost progress transition at a perfectly matching PoI.
    if (item.progress < k) {
      const PoiId poi = g.PoiAtVertex(item.vertex);
      if (poi != kInvalidPoi &&
          matchers[static_cast<size_t>(item.progress)].IsPerfect(poi) &&
          std::find(item.route.begin(), item.route.end(), poi) ==
              item.route.end()) {
        Item next{item.len, item.vertex, item.progress + 1, item.shared_mask,
                  item.route};
        if (const int32_t bit = shared_bit[static_cast<size_t>(poi)];
            bit >= 0 && bit < 64) {
          next.shared_mask |= uint64_t{1} << bit;
        }
        next.route.push_back(poi);
        push(std::move(next));
      }
    }
    for (const Neighbor& nb : g.OutEdges(item.vertex)) {
      // The pre-check is an optional prune (the pop re-checks); in the
      // used-set fallback its key costs a route copy + sort per edge, so
      // skip it there.
      if ((flat_states || track_masks) &&
          is_settled(nb.to, item.progress, item)) {
        continue;
      }
      push(Item{item.len + nb.weight, nb.to, item.progress, item.shared_mask,
                item.route});
    }
  }

  result.peak_queue_size = static_cast<int64_t>(heap.peak_size());
  result.route_nodes = 0;
  result.logical_peak_bytes =
      peak_queue_bytes + static_cast<int64_t>(settled.size()) +
      static_cast<int64_t>(settled_masked.size() * sizeof(StateKey)) +
      static_cast<int64_t>(settled_sets.size() *
                           (sizeof(int64_t) + k * sizeof(PoiId)));
  return result;
}

}  // namespace skysr
