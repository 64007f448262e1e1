#ifndef WAGG_MST_POINT_GRID_H
#define WAGG_MST_POINT_GRID_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

// wagg-lint: allow(class-grid) cell_key mixer only; no grid/row-cache state
#include "conflict/class_grid.h"
#include "geom/point.h"

namespace wagg::mst::detail {

/// One nearest-candidate answer: the point id minimizing (squared distance,
/// id), or id == -1 when no admissible point exists.
struct NearCandidate {
  std::int32_t id = -1;
  double w2 = std::numeric_limits<double>::infinity();
};

/// Uniform hash grid over the alive points of an IncrementalMst — the
/// maintained spatial candidate index behind the dynamic-tree MST engine.
/// It is the point-set analogue of conflict::detail::ClassGrid's endpoint
/// buckets and shares its mixed cell keys and saturating coordinates; the
/// query side differs because the MST engine needs EXACT nearest neighbors,
/// not over-approximate candidate lists.
///
/// Searches walk expanding Chebyshev rings of cells around the query: a
/// candidate is certified once every closer ring has been scanned, because
/// any point in a ring-r cell lies at Euclidean distance >= (r-1) * cell
/// from the query point. When a search would walk more cells than a budget
/// (hull points with empty cones, extreme density spreads like the
/// exponential chain), it falls back to one exact sweep over the occupied
/// cells — the worst case matches a brute-force scan instead of sinking
/// below it.
class PointGrid {
 public:
  PointGrid() = default;

  /// Resets to an empty grid with the given cell size (> 0).
  void reset(double cell) {
    if (!(cell > 0.0)) {
      throw std::invalid_argument("PointGrid: cell size must be positive");
    }
    cells_.clear();
    cell_ = cell;
    num_points_ = 0;
    min_cx_ = min_cy_ = std::numeric_limits<std::int64_t>::max();
    max_cx_ = max_cy_ = std::numeric_limits<std::int64_t>::min();
  }

  [[nodiscard]] std::size_t size() const noexcept { return num_points_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }

  /// Lifetime count of budget-exceeded ring searches that fell back to the
  /// exact occupied-cell sweep (survives reset(): it tracks the engine, not
  /// one grid generation). The telemetry layer surfaces it as
  /// mst.grid_fallback_sweeps — a sudden climb means the cell tuning no
  /// longer matches the instance's density spread.
  [[nodiscard]] std::uint64_t fallback_sweeps() const noexcept {
    return fallback_sweeps_;
  }

  void insert(std::int32_t id, const geom::Point& p) {
    const auto [cx, cy] = coords(p);
    auto& cell = cells_[conflict::detail::cell_key(cx, cy)];
    if (cell.entries.empty()) {
      cell.cx = cx;
      cell.cy = cy;
    }
    cell.entries.push_back(Entry{p, id});
    ++num_points_;
    min_cx_ = std::min(min_cx_, cx);
    max_cx_ = std::max(max_cx_, cx);
    min_cy_ = std::min(min_cy_, cy);
    max_cy_ = std::max(max_cy_, cy);
  }

  /// Removes one (id, p) entry inserted earlier; `p` must be bit-identical
  /// to the inserted position. Throws std::logic_error when absent — the
  /// caller's bookkeeping desynchronized. Occupied-cell bounds stay
  /// conservative (they never shrink); they only bound ring searches, so
  /// staleness costs empty-ring scans, never correctness.
  void erase(std::int32_t id, const geom::Point& p) {
    const auto [cx, cy] = coords(p);
    const auto it = cells_.find(conflict::detail::cell_key(cx, cy));
    if (it == cells_.end()) {
      throw std::logic_error("PointGrid::erase: cell not found");
    }
    auto& entries = it->second.entries;
    const auto pos =
        std::find_if(entries.begin(), entries.end(),
                     [&](const Entry& e) { return e.id == id; });
    if (pos == entries.end()) {
      throw std::logic_error("PointGrid::erase: id not in cell");
    }
    *pos = entries.back();
    entries.pop_back();
    if (entries.empty()) cells_.erase(it);
    --num_points_;
  }

  /// The smallest id inserted at exactly `p` (coordinate equality), or -1.
  [[nodiscard]] std::int32_t find_exact(const geom::Point& p) const {
    const auto [cx, cy] = coords(p);
    const auto it = cells_.find(conflict::detail::cell_key(cx, cy));
    std::int32_t found = -1;
    if (it == cells_.end()) return found;
    for (const Entry& e : it->second.entries) {
      if (e.p == p && (found < 0 || e.id < found)) found = e.id;
    }
    return found;
  }

  /// The 60-degree cone around `from` that contains direction (dx, dy).
  /// Any two directions in one cone are < 60 degrees apart (up to the
  /// floating-point boundary), which is exactly what makes nearest-per-cone
  /// a sufficient MST candidate star. Deterministic.
  [[nodiscard]] static int cone_of(double dx, double dy) noexcept {
    constexpr double kPi = 3.14159265358979323846;
    const double angle = std::atan2(dy, dx);  // [-pi, pi]
    const int cone = static_cast<int>(std::floor((angle + kPi) / (kPi / 3.0)));
    return cone < 0 ? 0 : (cone > 5 ? 5 : cone);
  }

  /// Exact nearest admissible point per 60-degree cone around `from`,
  /// minimizing (squared distance, id) within each cone. `excluded(id)`
  /// filters (e.g. the query point itself). Cones with no admissible point
  /// report id == -1.
  template <typename ExcludeFn>
  [[nodiscard]] std::array<NearCandidate, 6> cone_nearest(
      const geom::Point& from, ExcludeFn&& excluded) const {
    std::array<NearCandidate, 6> best{};
    search(from, excluded, best,
           std::numeric_limits<double>::infinity());
    return best;
  }

  /// Exact nearest admissible point overall (same contract, one cone-less
  /// answer) — the reconnection primitive of IncrementalMst::detach.
  /// `limit_w2` prunes the search: the answer is exact for squared
  /// distances <= limit_w2, and id == -1 beyond it (callers that already
  /// hold a candidate at limit_w2 lose nothing). Points AT the limit are
  /// still found, so (w2, id) tie-breaks against the caller's candidate
  /// stay exact.
  template <typename ExcludeFn>
  [[nodiscard]] NearCandidate nearest(
      const geom::Point& from, ExcludeFn&& excluded,
      double limit_w2 = std::numeric_limits<double>::infinity()) const {
    std::array<NearCandidate, 1> best{};
    search(from, excluded, best, limit_w2);
    return best[0];
  }

 private:
  struct Entry {
    geom::Point p;
    std::int32_t id = -1;
  };
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::vector<Entry> entries;
  };

  /// Cells a ring search may probe before falling back to the exact
  /// occupied-cell sweep.
  static constexpr std::size_t kRingBudget = 128;

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> coords(
      const geom::Point& p) const {
    return {conflict::detail::saturating_cell(p.x / cell_),
            conflict::detail::saturating_cell(p.y / cell_)};
  }

  template <std::size_t N, typename ExcludeFn>
  void consider(const geom::Point& from, const ExcludeFn& excluded,
                std::array<NearCandidate, N>& best, const Entry& e) const {
    if (excluded(e.id)) return;
    const double dx = e.p.x - from.x;
    const double dy = e.p.y - from.y;
    const double w2 = dx * dx + dy * dy;
    NearCandidate& slot =
        best[N == 1 ? 0 : static_cast<std::size_t>(cone_of(dx, dy))];
    if (w2 < slot.w2 || (w2 == slot.w2 && e.id < slot.id)) {
      slot.id = e.id;
      slot.w2 = w2;
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void sweep_all(const geom::Point& from, const ExcludeFn& excluded,
                 std::array<NearCandidate, N>& best) const {
    for (const auto& [key, cell] : cells_) {
      for (const Entry& e : cell.entries) consider(from, excluded, best, e);
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void probe(std::int64_t cx, std::int64_t cy, const geom::Point& from,
             const ExcludeFn& excluded,
             std::array<NearCandidate, N>& best) const {
    const auto it = cells_.find(conflict::detail::cell_key(cx, cy));
    if (it == cells_.end()) return;
    for (const Entry& e : it->second.entries) {
      consider(from, excluded, best, e);
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void search(const geom::Point& from, const ExcludeFn& excluded,
              std::array<NearCandidate, N>& best, double limit_w2) const {
    if (num_points_ == 0) return;
    const auto [cx, cy] = coords(from);
    std::size_t probed = 0;
    for (std::int64_t r = 0;; ++r) {
      // Certification: nothing at ring >= r can be closer than
      // (r-1) * cell, so a strictly closer best is final (strict, because
      // an equal-distance point with a smaller id could still appear).
      // Past the caller's limit, unseen points are irrelevant by contract.
      const double ring_min = (static_cast<double>(r) - 1.0) * cell_;
      if (ring_min > 0.0) {
        const double ring_min2 = ring_min * ring_min;
        if (ring_min2 > limit_w2) return;
        bool resolved = true;
        for (const auto& b : best) resolved = resolved && b.w2 < ring_min2;
        if (resolved) return;
      }
      // The previous square already covered every occupied cell: whatever
      // is still unresolved has no admissible point at all.
      if (r > 0 && cx - (r - 1) <= min_cx_ && cx + (r - 1) >= max_cx_ &&
          cy - (r - 1) <= min_cy_ && cy + (r - 1) >= max_cy_) {
        return;
      }
      if (probed > kRingBudget) {
        ++fallback_sweeps_;
        sweep_all(from, excluded, best);
        return;
      }
      if (r == 0) {
        probe(cx, cy, from, excluded, best);
        ++probed;
        continue;
      }
      for (std::int64_t dx = -r; dx <= r; ++dx) {
        probe(cx + dx, cy - r, from, excluded, best);
        probe(cx + dx, cy + r, from, excluded, best);
        probed += 2;
      }
      for (std::int64_t dy = -r + 1; dy <= r - 1; ++dy) {
        probe(cx - r, cy + dy, from, excluded, best);
        probe(cx + r, cy + dy, from, excluded, best);
        probed += 2;
      }
    }
  }

  double cell_ = 1.0;
  std::size_t num_points_ = 0;
  std::int64_t min_cx_ = 0, max_cx_ = 0, min_cy_ = 0, max_cy_ = 0;
  std::unordered_map<std::uint64_t, Cell> cells_;
  /// Queries are const; the fallback tally is telemetry, not state.
  mutable std::uint64_t fallback_sweeps_ = 0;
};

}  // namespace wagg::mst::detail

#endif  // WAGG_MST_POINT_GRID_H
