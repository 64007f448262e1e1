#ifndef WAGG_GEOM_POINT_H
#define WAGG_GEOM_POINT_H

#include <cmath>
#include <string>
#include <vector>

namespace wagg::geom {

/// A sensor node location on the Euclidean plane. Line instances (all of the
/// paper's lower-bound constructions) simply use y == 0.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// The input to the aggregation problem: a finite set of node locations.
using Pointset = std::vector<Point>;

[[nodiscard]] inline double squared_distance(const Point& a,
                                             const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

[[nodiscard]] inline double distance(const Point& a, const Point& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

[[nodiscard]] inline bool is_finite(const Point& p) noexcept {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

/// "x = nan", "y = -inf", ...: the first non-finite coordinate of `p`, for
/// error messages.
[[nodiscard]] std::string nonfinite_coordinate(const Point& p);

/// Throws std::invalid_argument("<who>: point <i> has non-finite x = nan")
/// for the first point with a NaN or infinite coordinate. Distances and
/// grid cells of such a point are meaningless, so every tree builder and
/// session open checks its input with this.
void require_finite(const Pointset& points, const std::string& who);

/// Minimum pairwise distance over the pointset (the paper's d_min); used to
/// compute the length diversity Delta of a pointset. O(n^2).
/// Throws std::invalid_argument if fewer than two points.
[[nodiscard]] double min_pairwise_distance(const Pointset& points);

/// Maximum pairwise distance (the diameter). O(n^2).
/// Throws std::invalid_argument if fewer than two points.
[[nodiscard]] double diameter(const Pointset& points);

/// Builds a 1-D pointset (y == 0) from sorted or unsorted x coordinates.
[[nodiscard]] Pointset line_pointset(const std::vector<double>& xs);

}  // namespace wagg::geom

#endif  // WAGG_GEOM_POINT_H
