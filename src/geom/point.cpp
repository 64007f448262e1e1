#include "geom/point.h"

#include <stdexcept>
#include <string>

namespace wagg::geom {

std::string nonfinite_coordinate(const Point& p) {
  const bool x_bad = !std::isfinite(p.x);
  const double value = x_bad ? p.x : p.y;
  return std::string(x_bad ? "x = " : "y = ") +
         (std::isnan(value) ? "nan" : value > 0 ? "inf" : "-inf");
}

void require_finite(const Pointset& points, const std::string& who) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!is_finite(points[i])) {
      throw std::invalid_argument(who + ": point " + std::to_string(i) +
                                  " has non-finite " +
                                  nonfinite_coordinate(points[i]));
    }
  }
}

double min_pairwise_distance(const Pointset& points) {
  if (points.size() < 2) {
    throw std::invalid_argument("min_pairwise_distance: need >= 2 points");
  }
  double best = distance(points[0], points[1]);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = distance(points[i], points[j]);
      if (d < best) best = d;
    }
  }
  return best;
}

double diameter(const Pointset& points) {
  if (points.size() < 2) {
    throw std::invalid_argument("diameter: need >= 2 points");
  }
  double best = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = distance(points[i], points[j]);
      if (d > best) best = d;
    }
  }
  return best;
}

Pointset line_pointset(const std::vector<double>& xs) {
  Pointset points;
  points.reserve(xs.size());
  for (double x : xs) points.push_back(Point{x, 0.0});
  return points;
}

}  // namespace wagg::geom
