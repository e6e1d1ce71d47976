// Uniform spatial grid over 2-D points for nearest-vertex queries. Used when
// embedding PoIs into a road network and by the workload generators. A grid
// beats a k-d tree here: road-network vertices are near-uniformly spread, and
// construction is a single counting sort.

#ifndef SKYSR_GRAPH_SPATIAL_GRID_H_
#define SKYSR_GRAPH_SPATIAL_GRID_H_

#include <span>
#include <vector>

#include "graph/types.h"

namespace skysr {

/// Static grid index over a point set; query by expanding rings.
class SpatialGrid {
 public:
  /// Builds an index over points (xs[i], ys[i]). `target_per_cell` tunes the
  /// grid resolution.
  SpatialGrid(std::span<const double> xs, std::span<const double> ys,
              double target_per_cell = 4.0);

  /// Index of the point nearest to (x, y); -1 when the set is empty. A
  /// query too far away for finite squared distances gets some point.
  int64_t Nearest(double x, double y) const;

  /// All point indices within `radius` (Euclidean) of (x, y).
  std::vector<int64_t> WithinRadius(double x, double y, double radius) const;

  int64_t num_points() const { return static_cast<int64_t>(xs_.size()); }
  int64_t num_cells() const { return nx_ * ny_; }

 private:
  int64_t CellOf(double x, double y) const;
  void CellCoords(double x, double y, int64_t* cx, int64_t* cy) const;

  std::vector<double> xs_, ys_;
  std::vector<int64_t> cell_offsets_;  // CSR over cells
  std::vector<int64_t> cell_points_;
  double min_x_ = 0, min_y_ = 0, cell_size_ = 1;
  int64_t nx_ = 1, ny_ = 1;
};

}  // namespace skysr

#endif  // SKYSR_GRAPH_SPATIAL_GRID_H_
