#include "graph/poi_embedding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "graph/graph_builder.h"
#include "graph/spatial_grid.h"

namespace skysr {
namespace {

struct UniqueEdge {
  VertexId u, v;
  Weight weight;
};

// Projection of point p onto segment [a, b]: returns parameter t in [0,1]
// and squared distance.
void ProjectOntoSegment(double px, double py, double ax, double ay, double bx,
                        double by, double* t_out, double* d2_out) {
  const double abx = bx - ax, aby = by - ay;
  const double len2 = abx * abx + aby * aby;
  double t = 0.0;
  if (len2 > 0) {
    t = ((px - ax) * abx + (py - ay) * aby) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double qx = ax + t * abx, qy = ay + t * aby;
  const double dx = px - qx, dy = py - qy;
  *t_out = t;
  *d2_out = dx * dx + dy * dy;
}

}  // namespace

Result<Graph> EmbedPoisOnEdges(const Graph& base,
                               std::span<const PoiPoint> pois) {
  if (base.directed()) {
    return Status::InvalidArgument("PoI embedding requires undirected graphs");
  }
  if (!base.has_coordinates()) {
    return Status::InvalidArgument("PoI embedding requires coordinates");
  }
  if (base.num_pois() != 0) {
    return Status::InvalidArgument("base graph already contains PoIs");
  }
  // Every loader's PoIs pass through here; an infinite or NaN coordinate
  // would make the placement meaningless.
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (!std::isfinite(base.X(v)) || !std::isfinite(base.Y(v))) {
      return Status::InvalidArgument("non-finite coordinate at vertex " +
                                     std::to_string(v));
    }
  }
  for (size_t pi = 0; pi < pois.size(); ++pi) {
    if (!std::isfinite(pois[pi].x) || !std::isfinite(pois[pi].y)) {
      return Status::InvalidArgument("non-finite coordinate at PoI " +
                                     std::to_string(pi));
    }
  }

  // Unique undirected edges (u < v).
  std::vector<UniqueEdge> edges;
  edges.reserve(static_cast<size_t>(base.num_edges()));
  for (VertexId u = 0; u < base.num_vertices(); ++u) {
    for (const Neighbor& nb : base.OutEdges(u)) {
      if (u < nb.to) edges.push_back(UniqueEdge{u, nb.to, nb.weight});
    }
  }
  if (edges.empty() && !pois.empty()) {
    return Status::InvalidArgument("graph has no edges to embed PoIs on");
  }

  // Index edge midpoints; candidate edges for a PoI are those whose midpoint
  // lies within (nearest midpoint distance + longest half-edge), which is a
  // conservative superset of the true nearest edge.
  std::vector<double> mxs(edges.size()), mys(edges.size());
  double max_half_len = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    mxs[i] = 0.5 * (base.X(e.u) + base.X(e.v));
    mys[i] = 0.5 * (base.Y(e.u) + base.Y(e.v));
    const double dx = base.X(e.v) - base.X(e.u);
    const double dy = base.Y(e.v) - base.Y(e.u);
    max_half_len = std::max(max_half_len, 0.5 * std::hypot(dx, dy));
  }
  const SpatialGrid grid(mxs, mys);

  struct Placement {
    size_t edge_index;
    double t;
    size_t poi_index;
  };
  std::vector<Placement> placements;
  placements.reserve(pois.size());
  for (size_t pi = 0; pi < pois.size(); ++pi) {
    const PoiPoint& p = pois[pi];
    const int64_t near_mid = grid.Nearest(p.x, p.y);
    const double ndx = mxs[static_cast<size_t>(near_mid)] - p.x;
    const double ndy = mys[static_cast<size_t>(near_mid)] - p.y;
    const double search_r =
        std::hypot(ndx, ndy) + 2.0 * max_half_len + 1e-12;
    double best_d2 = std::numeric_limits<double>::infinity();
    size_t best_edge = static_cast<size_t>(near_mid);
    double best_t = 0.5;
    for (int64_t ei : grid.WithinRadius(p.x, p.y, search_r)) {
      const auto& e = edges[static_cast<size_t>(ei)];
      double t, d2;
      ProjectOntoSegment(p.x, p.y, base.X(e.u), base.Y(e.u), base.X(e.v),
                         base.Y(e.v), &t, &d2);
      if (d2 < best_d2) {
        best_d2 = d2;
        best_edge = static_cast<size_t>(ei);
        best_t = t;
      }
    }
    placements.push_back(Placement{best_edge, best_t, pi});
  }

  // Group placements by edge, order along the edge.
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              if (a.edge_index != b.edge_index) {
                return a.edge_index < b.edge_index;
              }
              if (a.t != b.t) return a.t < b.t;
              return a.poi_index < b.poi_index;
            });

  GraphBuilder builder(/*directed=*/false);
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    builder.AddVertex(base.X(v), base.Y(v));
  }

  size_t cursor = 0;
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const UniqueEdge& e = edges[ei];
    if (cursor >= placements.size() || placements[cursor].edge_index != ei) {
      builder.AddEdge(e.u, e.v, e.weight);
      continue;
    }
    // Split the edge at each placement in order.
    VertexId prev = e.u;
    double prev_t = 0.0;
    while (cursor < placements.size() && placements[cursor].edge_index == ei) {
      const Placement& pl = placements[cursor];
      const PoiPoint& p = pois[pl.poi_index];
      const double px =
          base.X(e.u) + pl.t * (base.X(e.v) - base.X(e.u));
      const double py =
          base.Y(e.u) + pl.t * (base.Y(e.v) - base.Y(e.u));
      const VertexId pv = builder.AddVertex(px, py);
      builder.AddPoi(pv, std::span<const CategoryId>(p.categories), p.name);
      builder.AddEdge(prev, pv, e.weight * (pl.t - prev_t));
      prev = pv;
      prev_t = pl.t;
      ++cursor;
    }
    builder.AddEdge(prev, e.v, e.weight * (1.0 - prev_t));
  }
  return builder.Build();
}

}  // namespace skysr
