#ifndef WAGG_CONFLICT_CLASS_GRID_H
#define WAGG_CONFLICT_CLASS_GRID_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "geom/point.h"

namespace wagg::conflict::detail {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t v) noexcept {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}

/// Cell key of integer grid coordinates. Both coordinates pass through a
/// full-width mix before combining, so coordinates beyond 32 bits (huge
/// extents or tiny cells) produce scattered — not systematically aliased —
/// keys. The old `(x << 32) ^ (y & 0xffffffff)` scheme silently collapsed
/// every x with equal low bits onto one bucket past 2^32, inflating
/// candidate lists. Deterministic: a pure function of (x, y).
[[nodiscard]] inline std::uint64_t cell_key(std::int64_t x,
                                            std::int64_t y) noexcept {
  return mix64(static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL) ^
         mix64(static_cast<std::uint64_t>(y) + 0x517cc1b727220a95ULL);
}

/// floor() result saturated into int64 — coordinates farther than 2^62 cells
/// from the origin clamp to the boundary instead of invoking UB on the cast.
/// Clamped cells merge, which only ever widens candidate lists (queries and
/// inserts saturate identically), never drops a true neighbor cell.
[[nodiscard]] inline std::int64_t saturating_cell(double q) noexcept {
  constexpr double kLimit = 4.611686018427387904e18;  // 2^62
  if (!(q > -kLimit)) return -(1LL << 62);            // also catches NaN
  if (q >= kLimit) return 1LL << 62;
  return static_cast<std::int64_t>(std::floor(q));
}

/// Uniform grid over the link endpoints of one power-of-two length class.
/// Values are link identifiers (dense indices for conflict_neighbors_bucketed,
/// LinkIds for ConflictIndex); every link contributes exactly two entries,
/// one per endpoint.
template <typename V>
class ClassGrid {
 public:
  ClassGrid(double cell, double origin_x, double origin_y)
      : cell_(cell), origin_x_(origin_x), origin_y_(origin_y) {}

  void insert(const geom::Point& p, V value) {
    const auto [cx, cy] = coords(p);
    auto& cell = cells_[cell_key(cx, cy)];
    if (cell.values.empty()) {
      cell.cx = cx;
      cell.cy = cy;
    }
    cell.values.push_back(value);
    ++num_values_;
  }

  /// Removes one (p, value) entry inserted earlier; `p` must be the exact
  /// point given to insert (same bits, same cell). Throws std::logic_error
  /// when the entry is absent — the caller's bookkeeping desynchronized.
  void erase(const geom::Point& p, V value) {
    const auto it = cells_.find(key(p));
    if (it == cells_.end()) {
      throw std::logic_error("ClassGrid::erase: cell not found");
    }
    auto& bucket = it->second.values;
    const auto pos = std::find(bucket.begin(), bucket.end(), value);
    if (pos == bucket.end()) {
      throw std::logic_error("ClassGrid::erase: value not in cell");
    }
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) cells_.erase(it);
    --num_values_;
  }

  /// Collects values with an endpoint within `radius` of p (over-approximate:
  /// visits all cells intersecting the bounding square).
  void query(const geom::Point& p, double radius,
             std::vector<V>& out) const {
    const auto [cx, cy] = coords(p);
    const std::int64_t reach = reach_of(radius);
    for (std::int64_t dx = -reach; dx <= reach; ++dx) {
      for (std::int64_t dy = -reach; dy <= reach; ++dy) {
        const auto it = cells_.find(cell_key(cx + dx, cy + dy));
        if (it == cells_.end()) continue;
        out.insert(out.end(), it->second.values.begin(),
                   it->second.values.end());
      }
    }
  }

  /// Collects values with an endpoint within `radius` of `a` OR of `b`
  /// (over-approximate, cell granularity — the union of two query() calls,
  /// possibly with duplicates). Unlike query(), this stays cheap for radii
  /// spanning many cells: when walking the two bounding squares would touch
  /// more cells than the class occupies, it scans the occupied cells and
  /// prunes each by the SAME cell-coordinate criterion the walk uses, so
  /// both paths produce the identical candidate set.
  void collect(const geom::Point& a, const geom::Point& b, double radius,
               std::vector<V>& out) const {
    if (2.0 * query_cost(radius) <=
        static_cast<double>(cells_.size()) + 64.0) {
      query(a, radius, out);
      query(b, radius, out);
      return;
    }
    const auto [ax, ay] = coords(a);
    const auto [bx, by] = coords(b);
    const std::int64_t reach = reach_of(radius);
    // Interval bounds instead of |c - p| <= reach: coordinates saturate to
    // +-2^62 and reach is clamped below 2^62, so p +- reach stays within
    // int64 range, whereas the subtraction could overflow for opposite-side
    // saturated operands.
    const std::int64_t axl = ax - reach, axh = ax + reach;
    const std::int64_t ayl = ay - reach, ayh = ay + reach;
    const std::int64_t bxl = bx - reach, bxh = bx + reach;
    const std::int64_t byl = by - reach, byh = by + reach;
    for (const auto& [k, cell] : cells_) {
      const bool near_a = cell.cx >= axl && cell.cx <= axh &&
                          cell.cy >= ayl && cell.cy <= ayh;
      const bool near_b = cell.cx >= bxl && cell.cx <= bxh &&
                          cell.cy >= byl && cell.cy <= byh;
      if (!near_a && !near_b) continue;
      out.insert(out.end(), cell.values.begin(), cell.values.end());
    }
  }

  /// Number of cells a query of this radius would visit.
  [[nodiscard]] double query_cost(double radius) const {
    const double reach = radius / cell_ + 1.0;
    return (2.0 * reach + 1.0) * (2.0 * reach + 1.0);
  }

  /// Collects every value in the class (linear scan fallback).
  void all(std::vector<V>& out) const {
    for (const auto& [k, cell] : cells_) {
      out.insert(out.end(), cell.values.begin(), cell.values.end());
    }
  }

  /// Entries stored (two per link: one per endpoint).
  [[nodiscard]] std::size_t num_values() const noexcept { return num_values_; }
  /// Links stored.
  [[nodiscard]] std::size_t num_links() const noexcept {
    return num_values_ / 2;
  }
  [[nodiscard]] std::size_t num_cells() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return num_values_ == 0; }

 private:
  /// One occupied cell; the coordinates allow distance pruning when
  /// scanning occupied cells instead of walking a query square (the mixed
  /// map key cannot be inverted).
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::vector<V> values;
  };

  [[nodiscard]] std::int64_t reach_of(double radius) const {
    return static_cast<std::int64_t>(std::min(radius / cell_, 4.0e18)) + 1;
  }
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> coords(
      const geom::Point& p) const {
    return {saturating_cell((p.x - origin_x_) / cell_),
            saturating_cell((p.y - origin_y_) / cell_)};
  }
  [[nodiscard]] std::uint64_t key(const geom::Point& p) const {
    const auto [cx, cy] = coords(p);
    return cell_key(cx, cy);
  }

  double cell_;
  double origin_x_;
  double origin_y_;
  std::size_t num_values_ = 0;
  std::unordered_map<std::uint64_t, Cell> cells_;
};

}  // namespace wagg::conflict::detail

#endif  // WAGG_CONFLICT_CLASS_GRID_H
