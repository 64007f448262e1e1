#include "conflict/fgraph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "conflict/class_grid.h"

namespace wagg::conflict {

void ConflictSpec::validate() const {
  if (!(gamma > 0.0)) {
    throw std::invalid_argument("ConflictSpec: gamma must be positive");
  }
  if (kind == Kind::kPowerLaw && !(delta > 0.0 && delta < 1.0)) {
    throw std::invalid_argument("ConflictSpec: delta must lie in (0, 1)");
  }
  if (kind == Kind::kLogarithmic && !(alpha > 2.0)) {
    throw std::invalid_argument("ConflictSpec: alpha must exceed 2");
  }
}

double ConflictSpec::f(double x) const {
  if (x < 1.0) throw std::invalid_argument("ConflictSpec::f: x must be >= 1");
  switch (kind) {
    case Kind::kConstant:
      return gamma;
    case Kind::kPowerLaw:
      return gamma * std::pow(x, delta);
    case Kind::kLogarithmic: {
      const double lg = std::log2(x);
      return gamma * std::max(1.0, std::pow(lg, 2.0 / (alpha - 2.0)));
    }
  }
  throw std::logic_error("ConflictSpec::f: unknown kind");
}

bool ConflictSpec::conflicting(const geom::LinkView& links, std::size_t i,
                               std::size_t j) const {
  if (i == j) return false;
  const double li = links.length(i);
  const double lj = links.length(j);
  const double lmin = std::min(li, lj);
  const double lmax = std::max(li, lj);
  // Independent iff d(i, j) / lmin > f(lmax / lmin). Division keeps every
  // intermediate within double range even on doubly-exponential instances.
  return links.link_distance(i, j) / lmin <= f(lmax / lmin);
}

std::string ConflictSpec::name() const {
  switch (kind) {
    case Kind::kConstant:
      return "G_gamma(" + std::to_string(gamma) + ")";
    case Kind::kPowerLaw:
      return "G^delta(" + std::to_string(delta) + ",gamma=" +
             std::to_string(gamma) + ")";
    case Kind::kLogarithmic:
      return "G_log(gamma=" + std::to_string(gamma) + ")";
  }
  return "G_?";
}

ConflictSpec ConflictSpec::constant(double gamma) {
  ConflictSpec spec;
  spec.kind = Kind::kConstant;
  spec.gamma = gamma;
  spec.validate();
  return spec;
}

ConflictSpec ConflictSpec::power_law(double gamma, double delta) {
  ConflictSpec spec;
  spec.kind = Kind::kPowerLaw;
  spec.gamma = gamma;
  spec.delta = delta;
  spec.validate();
  return spec;
}

ConflictSpec ConflictSpec::logarithmic(double gamma, double alpha) {
  ConflictSpec spec;
  spec.kind = Kind::kLogarithmic;
  spec.gamma = gamma;
  spec.alpha = alpha;
  spec.validate();
  return spec;
}

Graph build_conflict_graph(const geom::LinkView& links,
                           const ConflictSpec& spec) {
  spec.validate();
  Graph graph(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      if (spec.conflicting(links, i, j)) graph.add_edge(i, j);
    }
  }
  graph.finalize();
  return graph;
}

namespace {

using DenseGrid = detail::ClassGrid<std::int32_t>;

}  // namespace

std::vector<std::vector<std::int32_t>> conflict_neighbors_bucketed(
    const geom::LinkView& links, const ConflictSpec& spec,
    std::span<const std::size_t> queries) {
  spec.validate();
  std::vector<std::vector<std::int32_t>> result(queries.size());
  if (links.size() < 2) return result;
  const double lmin = links.min_length();
  const double origin_x = links.points().empty() ? 0.0 : links.points()[0].x;
  const double origin_y = links.points().empty() ? 0.0 : links.points()[0].y;

  auto class_of = [&](std::size_t i) {
    return static_cast<int>(std::floor(std::log2(links.length(i) / lmin)));
  };

  // Index EVERY link: a query must see both shorter and longer partners.
  std::map<int, DenseGrid> grids;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const int ci = class_of(i);
    auto [it, inserted] = grids.try_emplace(
        ci, std::exp2(static_cast<double>(ci)) * lmin, origin_x, origin_y);
    it->second.insert(links.sender_pos(i), static_cast<std::int32_t>(i));
    it->second.insert(links.receiver_pos(i), static_cast<std::int32_t>(i));
  }

  std::vector<std::int32_t> candidates;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const std::size_t q = queries[k];
    const double lq = links.length(q);
    candidates.clear();
    for (auto& [cs, grid] : grids) {
      // Two-sided bound: for partner j in class cs (class_lo <= l_j <
      // class_hi), conflict requires
      //   d(q, j) <= lmin_pair * f(lmax_pair / lmin_pair)
      // with lmin_pair <= min(lq, class_hi) and lmax_pair / lmin_pair <=
      // max(lq / class_lo, class_hi / lq, 1); f is non-decreasing, so
      // radius = min(lq, class_hi) * f(x_max) over-approximates every pair.
      const double class_lo = std::exp2(static_cast<double>(cs)) * lmin;
      const double class_hi = 2.0 * class_lo;
      const double x_max =
          std::max({1.0, lq / class_lo, class_hi / lq});
      // Exact-boundary tie guard: identical formula to ConflictIndex's, so
      // both candidate sets agree on threshold pairs.
      const double radius =
          std::min(lq, class_hi) * spec.f(x_max) + 1e-12 * std::max(lq, class_hi);
      if (grid.query_cost(radius) >
          static_cast<double>(grid.num_links()) + 64.0) {
        grid.all(candidates);
      } else {
        grid.query(links.sender_pos(q), radius, candidates);
        grid.query(links.receiver_pos(q), radius, candidates);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    auto& row = result[k];
    for (const std::int32_t j : candidates) {
      if (spec.conflicting(links, q, static_cast<std::size_t>(j))) {
        row.push_back(j);
      }
    }
  }
  return result;
}

}  // namespace wagg::conflict
