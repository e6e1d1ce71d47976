#include "graph/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace skysr {
namespace {

/// `v` truncated to an index in [0, hi]. The clamp happens on the double,
/// so a far-away, infinite or NaN coordinate never reaches an overflowing
/// cast.
int64_t ClampedIndex(double v, int64_t hi) {
  if (!(v >= 0)) return 0;
  if (v >= static_cast<double>(hi)) return hi;
  return static_cast<int64_t>(v);
}

}  // namespace

SpatialGrid::SpatialGrid(std::span<const double> xs, std::span<const double> ys,
                         double target_per_cell)
    : xs_(xs.begin(), xs.end()), ys_(ys.begin(), ys.end()) {
  SKYSR_CHECK(xs.size() == ys.size());
  const int64_t n = static_cast<int64_t>(xs_.size());
  if (n == 0) {
    cell_offsets_ = {0, 0};
    return;
  }
  double max_x = xs_[0], max_y = ys_[0];
  min_x_ = xs_[0];
  min_y_ = ys_[0];
  for (int64_t i = 1; i < n; ++i) {
    min_x_ = std::min(min_x_, xs_[static_cast<size_t>(i)]);
    min_y_ = std::min(min_y_, ys_[static_cast<size_t>(i)]);
    max_x = std::max(max_x, xs_[static_cast<size_t>(i)]);
    max_y = std::max(max_y, ys_[static_cast<size_t>(i)]);
  }
  const double width = std::max(max_x - min_x_, 1e-12);
  const double height = std::max(max_y - min_y_, 1e-12);
  const double cells = std::max(1.0, static_cast<double>(n) / target_per_cell);
  // Aspect-preserving grid with ~`cells` cells total. Neither side gets
  // more than `cells` cells: a collinear point set (height clamped to
  // 1e-12) would otherwise ask for width / 1e-12 columns.
  const double aspect = width / height;
  nx_ = std::max<int64_t>(
      1, ClampedIndex(std::sqrt(cells * aspect), static_cast<int64_t>(cells)));
  ny_ = std::max<int64_t>(1, static_cast<int64_t>(cells / static_cast<double>(nx_)));
  cell_size_ = std::max(width / static_cast<double>(nx_),
                        height / static_cast<double>(ny_));
  nx_ = ClampedIndex(width / cell_size_, nx_) + 1;
  ny_ = ClampedIndex(height / cell_size_, ny_) + 1;

  const int64_t num_cells = nx_ * ny_;
  cell_offsets_.assign(static_cast<size_t>(num_cells) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    ++cell_offsets_[static_cast<size_t>(
                        CellOf(xs_[static_cast<size_t>(i)],
                               ys_[static_cast<size_t>(i)])) +
                    1];
  }
  for (size_t c = 1; c < cell_offsets_.size(); ++c) {
    cell_offsets_[c] += cell_offsets_[c - 1];
  }
  cell_points_.resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(cell_offsets_.begin(), cell_offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = CellOf(xs_[static_cast<size_t>(i)],
                             ys_[static_cast<size_t>(i)]);
    cell_points_[static_cast<size_t>(cursor[static_cast<size_t>(c)]++)] = i;
  }
}

void SpatialGrid::CellCoords(double x, double y, int64_t* cx,
                             int64_t* cy) const {
  *cx = ClampedIndex((x - min_x_) / cell_size_, nx_ - 1);
  *cy = ClampedIndex((y - min_y_) / cell_size_, ny_ - 1);
}

int64_t SpatialGrid::CellOf(double x, double y) const {
  int64_t cx, cy;
  CellCoords(x, y, &cx, &cy);
  return cy * nx_ + cx;
}

int64_t SpatialGrid::Nearest(double x, double y) const {
  if (xs_.empty()) return -1;
  int64_t cx, cy;
  CellCoords(x, y, &cx, &cy);
  int64_t best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  const int64_t max_ring = std::max(nx_, ny_);
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    // Once a hit exists, stop when the ring cannot contain anything closer.
    if (best >= 0) {
      const double ring_min =
          (static_cast<double>(ring) - 1.0) * cell_size_;
      if (ring_min > 0 && ring_min * ring_min > best_d2) break;
    }
    for (int64_t dy = -ring; dy <= ring; ++dy) {
      for (int64_t dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        const int64_t gx = cx + dx, gy = cy + dy;
        if (gx < 0 || gx >= nx_ || gy < 0 || gy >= ny_) continue;
        const int64_t c = gy * nx_ + gx;
        for (int64_t k = cell_offsets_[static_cast<size_t>(c)];
             k < cell_offsets_[static_cast<size_t>(c) + 1]; ++k) {
          const int64_t i = cell_points_[static_cast<size_t>(k)];
          const double ddx = xs_[static_cast<size_t>(i)] - x;
          const double ddy = ys_[static_cast<size_t>(i)] - y;
          const double d2 = ddx * ddx + ddy * ddy;
          // The first point is taken even at an infinite distance, so a
          // non-empty grid always answers with a valid index.
          if (best < 0 || d2 < best_d2) {
            best_d2 = d2;
            best = i;
          }
        }
      }
    }
  }
  return best;
}

std::vector<int64_t> SpatialGrid::WithinRadius(double x, double y,
                                               double radius) const {
  std::vector<int64_t> out;
  if (xs_.empty()) return out;
  int64_t cx0, cy0, cx1, cy1;
  CellCoords(x - radius, y - radius, &cx0, &cy0);
  CellCoords(x + radius, y + radius, &cx1, &cy1);
  const double r2 = radius * radius;
  for (int64_t gy = cy0; gy <= cy1; ++gy) {
    for (int64_t gx = cx0; gx <= cx1; ++gx) {
      const int64_t c = gy * nx_ + gx;
      for (int64_t k = cell_offsets_[static_cast<size_t>(c)];
           k < cell_offsets_[static_cast<size_t>(c) + 1]; ++k) {
        const int64_t i = cell_points_[static_cast<size_t>(k)];
        const double ddx = xs_[static_cast<size_t>(i)] - x;
        const double ddy = ys_[static_cast<size_t>(i)] - y;
        if (ddx * ddx + ddy * ddy <= r2) out.push_back(i);
      }
    }
  }
  return out;
}

}  // namespace skysr
