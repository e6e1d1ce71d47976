#include "core/feasibility.h"

#include <algorithm>

namespace skysr {

Infeasibility CheckFeasibility(const Graph& g,
                               std::span<const PositionMatcher> matchers,
                               const std::vector<Weight>* dest_dist,
                               FeasibilityScratch* scratch) {
  FeasibilityScratch& s = *scratch;
  const int k = static_cast<int>(matchers.size());
  const size_t ks = matchers.size();
  // A list never holds more than k matches, nor more than every PoI; the
  // second cap keeps a query with more positions than PoIs within the
  // O(k |P|) similarity memos the engine already holds.
  const size_t cap = std::min(ks, static_cast<size_t>(g.num_pois()));
  s.lists.resize(ks * cap);
  s.count.assign(ks, 0);

  // One PoI scan, capped at k matches per position. With a destination the
  // last position keeps only PoIs whose tail is finite; `last_matched`
  // remembers whether it matched anything at all, to tell the two empty
  // cases apart.
  bool last_matched = false;
  int full = 0;
  for (PoiId p = 0; full < k && p < g.num_pois(); ++p) {
    for (int m = 0; m < k; ++m) {
      int& c = s.count[static_cast<size_t>(m)];
      if (c == k || matchers[static_cast<size_t>(m)].SimOfPoi(p) <= 0) {
        continue;
      }
      if (m == k - 1 && dest_dist != nullptr) {
        last_matched = true;
        if ((*dest_dist)[static_cast<size_t>(g.VertexOfPoi(p))] ==
            kInfWeight) {
          continue;
        }
      }
      s.lists[static_cast<size_t>(m) * cap + static_cast<size_t>(c)] = p;
      if (++c == k) ++full;
    }
  }
  for (int m = 0; m < k; ++m) {
    if (s.count[static_cast<size_t>(m)] == 0) {
      return Infeasibility{m == k - 1 && last_matched
                               ? InfeasibleReason::kDestUnreachable
                               : InfeasibleReason::kNoMatch,
                           m};
    }
  }

  // Hall's condition over the short positions (fewer than k matches): the
  // others are served last, from the k - 1 PoIs at most taken before them.
  s.pois.clear();
  for (size_t m = 0; m < ks; ++m) {
    const int c = s.count[m];
    if (c == k) continue;
    s.pois.insert(s.pois.end(), s.lists.begin() + m * cap,
                  s.lists.begin() + m * cap + c);
  }
  if (s.pois.empty()) return Infeasibility{};
  std::sort(s.pois.begin(), s.pois.end());
  s.pois.erase(std::unique(s.pois.begin(), s.pois.end()), s.pois.end());
  s.owner.assign(s.pois.size(), -1);
  s.visit.assign(s.pois.size(), -1);

  // Kuhn's augmenting paths: position m takes a free PoI of its list, or
  // one whose owner can move to another PoI of its own list. Each top-level
  // call uses its position as the visit stamp.
  const auto augment = [&](const auto& self, int m, int stamp) -> bool {
    const size_t base = static_cast<size_t>(m) * cap;
    for (int i = 0; i < s.count[static_cast<size_t>(m)]; ++i) {
      const size_t j = static_cast<size_t>(
          std::lower_bound(s.pois.begin(), s.pois.end(),
                           s.lists[base + static_cast<size_t>(i)]) -
          s.pois.begin());
      if (s.visit[j] == stamp) continue;
      s.visit[j] = stamp;
      if (s.owner[j] < 0 || self(self, s.owner[j], stamp)) {
        s.owner[j] = m;
        return true;
      }
    }
    return false;
  };
  for (int m = 0; m < k; ++m) {
    if (s.count[static_cast<size_t>(m)] == k) continue;
    if (!augment(augment, m, m)) {
      return Infeasibility{InfeasibleReason::kHall, m};
    }
  }
  return Infeasibility{};
}

}  // namespace skysr
