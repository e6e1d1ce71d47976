#include "index/alt_oracle.h"

#include <algorithm>

#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "util/binary_io.h"
#include "util/dary_heap.h"
#include "util/logging.h"
#include "util/timer.h"

namespace skysr {
namespace {

// Relative shrink restoring robust admissibility/consistency of the
// triangle bounds against last-ulp rounding of the stored landmark
// distances (see the header).
constexpr double kBoundShrink = 1.0 - 1e-12;

}  // namespace

AltOracle AltOracle::Build(const Graph& g, int num_landmarks) {
  WallTimer timer;
  AltOracle alt(g);
  const int64_t n = g.num_vertices();
  num_landmarks =
      std::max(0, std::min<int>(num_landmarks, static_cast<int>(n)));
  if (n == 0 || num_landmarks == 0) {
    alt.build_stats_.build_ms = timer.ElapsedMillis();
    return alt;
  }

  // Farthest-point selection. min_dist[v] = distance from v to the nearest
  // chosen landmark (forward distances; a heuristic, so direction choice is
  // immaterial for correctness).
  std::vector<Weight> min_dist(static_cast<size_t>(n), kInfWeight);
  VertexId next = 0;  // deterministic first pick
  while (static_cast<int>(alt.landmarks_.size()) < num_landmarks) {
    alt.landmarks_.push_back(next);
    alt.from_.push_back(SingleSourceDistances(g, next).dist);
    const std::vector<Weight>& d = alt.from_.back();
    Weight best = -1;
    VertexId farthest = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      min_dist[static_cast<size_t>(v)] =
          std::min(min_dist[static_cast<size_t>(v)],
                   d[static_cast<size_t>(v)]);
      // Prefer the vertex farthest from the chosen set; unreachable
      // components (min_dist = +inf) are covered first.
      const Weight md = min_dist[static_cast<size_t>(v)];
      if (md > best && md > 0) {
        best = md;
        farthest = v;
      }
    }
    if (farthest == kInvalidVertex) break;  // everything is a landmark
    next = farthest;
  }

  if (g.directed()) {
    const Graph reversed = ReverseOf(g);
    for (const VertexId l : alt.landmarks_) {
      alt.to_.push_back(SingleSourceDistances(reversed, l).dist);
    }
  }

  alt.build_stats_.build_ms = timer.ElapsedMillis();
  alt.build_stats_.num_landmarks = static_cast<int>(alt.landmarks_.size());
  return alt;
}

Weight AltOracle::LowerBound(VertexId source, VertexId target) const {
  if (source == target) return 0;
  const auto s = static_cast<size_t>(source);
  const auto t = static_cast<size_t>(target);
  Weight bound = 0;
  for (size_t l = 0; l < landmarks_.size(); ++l) {
    const std::vector<Weight>& from = from_[l];
    const std::vector<Weight>& to = to_.empty() ? from_[l] : to_[l];
    // d(L,s) finite but d(L,t) infinite proves t unreachable from s:
    // otherwise d(L,t) <= d(L,s) + d(s,t) would be finite. Symmetrically
    // for the to-landmark side.
    if (from[s] != kInfWeight) {
      if (from[t] == kInfWeight) return kInfWeight;
      bound = std::max(bound, from[t] - from[s]);
    }
    if (to[t] != kInfWeight) {
      if (to[s] == kInfWeight) return kInfWeight;
      bound = std::max(bound, to[s] - to[t]);
    }
  }
  return bound * kBoundShrink;
}

Weight AltOracle::Distance(VertexId source, VertexId target,
                           OracleWorkspace& ws) const {
  SKYSR_DCHECK(source >= 0 && source < g_->num_vertices());
  SKYSR_DCHECK(target >= 0 && target < g_->num_vertices());
  const int64_t n = g_->num_vertices();
  ws.fwd.Prepare(n);
  ws.heur.Prepare(n, kInfWeight);

  const auto h = [&](VertexId v) -> Weight {
    Weight cached = ws.heur.Get(v);
    if (cached == kInfWeight) {
      cached = LowerBound(v, target);
      ws.heur.Set(v, cached);
    }
    return cached;
  };

  struct AStarItem {
    Weight f;
    Weight g;
    VertexId vertex;
    bool operator<(const AStarItem& o) const {
      if (f != o.f) return f < o.f;
      return vertex < o.vertex;
    }
  };
  DaryHeap<AStarItem> heap;
  const Weight h0 = h(source);
  if (h0 == kInfWeight) return kInfWeight;  // provably unreachable
  ws.fwd.SetDist(source, 0, kInvalidVertex);
  heap.push(AStarItem{h0, 0, source});

  while (!heap.empty()) {
    const AStarItem item = heap.pop();
    if (ws.fwd.Settled(item.vertex)) continue;
    ws.fwd.MarkSettled(item.vertex);
    if (item.vertex == target) return item.g;
    for (const Neighbor& nb : g_->OutEdges(item.vertex)) {
      if (ws.fwd.Settled(nb.to)) continue;
      const Weight ng = item.g + nb.weight;
      if (ng < ws.fwd.Dist(nb.to)) {
        const Weight hn = h(nb.to);
        if (hn == kInfWeight) continue;  // cannot reach the target
        ws.fwd.SetDist(nb.to, ng, item.vertex);
        heap.push(AStarItem{ng + hn, ng, nb.to});
      }
    }
  }
  return kInfWeight;
}

int64_t AltOracle::MemoryBytes() const {
  int64_t bytes =
      static_cast<int64_t>(landmarks_.capacity() * sizeof(VertexId));
  for (const auto& v : from_) {
    bytes += static_cast<int64_t>(v.capacity() * sizeof(Weight));
  }
  for (const auto& v : to_) {
    bytes += static_cast<int64_t>(v.capacity() * sizeof(Weight));
  }
  return bytes;
}

Status AltOracle::SavePayload(std::FILE* f) const {
  if (!binary_io::WriteVec(f, landmarks_)) {
    return Status::IOError("short write of ALT index payload");
  }
  const uint8_t has_to = to_.empty() ? 0 : 1;
  if (!binary_io::WritePod(f, has_to)) {
    return Status::IOError("short write of ALT index payload");
  }
  for (const auto& v : from_) {
    if (!binary_io::WriteVec(f, v)) {
      return Status::IOError("short write of ALT index payload");
    }
  }
  for (const auto& v : to_) {
    if (!binary_io::WriteVec(f, v)) {
      return Status::IOError("short write of ALT index payload");
    }
  }
  return Status::OK();
}

Result<AltOracle> AltOracle::LoadPayload(std::FILE* f, const Graph& g) {
  AltOracle alt(g);
  uint8_t has_to = 0;
  if (!binary_io::ReadVec(f, &alt.landmarks_) ||
      !binary_io::ReadPod(f, &has_to)) {
    return Status::IOError("corrupt or truncated ALT index payload");
  }
  const auto read_matrix = [&](std::vector<std::vector<Weight>>* m) {
    m->resize(alt.landmarks_.size());
    for (auto& v : *m) {
      if (!binary_io::ReadVec(f, &v) ||
          v.size() != static_cast<size_t>(g.num_vertices())) {
        return false;
      }
    }
    return true;
  };
  if (!read_matrix(&alt.from_) || (has_to != 0 && !read_matrix(&alt.to_))) {
    return Status::IOError("corrupt or truncated ALT index payload");
  }
  for (const VertexId l : alt.landmarks_) {
    if (l < 0 || l >= g.num_vertices()) {
      return Status::IOError("ALT index landmark out of range");
    }
  }
  alt.build_stats_.num_landmarks = static_cast<int>(alt.landmarks_.size());
  return alt;
}

}  // namespace skysr
