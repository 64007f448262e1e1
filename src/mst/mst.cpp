#include "mst/mst.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace wagg::mst {

namespace {

void require_at_least_two(const geom::Pointset& points, const char* who) {
  if (points.size() < 2) {
    throw std::invalid_argument(std::string(who) + ": need >= 2 points");
  }
}

struct WeightedEdge {
  double w;
  std::int32_t u;
  std::int32_t v;
};

/// All-pairs edges sorted by (weight, u, v); deterministic.
std::vector<WeightedEdge> sorted_complete_graph(const geom::Pointset& points) {
  const auto n = static_cast<std::int32_t>(points.size());
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) {
      edges.push_back(
          {geom::distance(points[static_cast<std::size_t>(i)],
                          points[static_cast<std::size_t>(j)]),
           i, j});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.w != b.w) return a.w < b.w;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  return edges;
}

// ------------------------------------------------ exact candidate graph

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Boxes whose width plus height lies outside [kMinExtent, kMaxExtent]
/// (but is not zero) could overflow a distance or the grid's arithmetic;
/// the dense loop takes them.
constexpr double kMinExtent = 0x1p-1000;
constexpr double kMaxExtent = 0x1p1020;

/// Average points per grid cell; the cell size from which a cell's points
/// are searched from the query's x outward, and the one from which a cell
/// is first tested as a whole.
constexpr double kPointsPerCell = 2.0;
constexpr std::int32_t kSortedScan = 16;
constexpr std::int32_t kBoxTest = 8;
constexpr int kRings = 2;

/// hypot is faithful, so it never falls below the larger of |dx|, |dy| by
/// more than an ulp; a point whose larger component exceeds a distance
/// times kGuard is strictly farther. Squared differences, scaled by a power
/// of two that takes the octant's best point into [1, 2), order points as
/// hypot does up to a few ulps; kSquareGuard widens that test before a
/// point is called farther.
constexpr double kGuard = 1.0 + 0x1p-40;
constexpr double kSquareGuard = 1.0 + 0x1p-38;

/// A nearest distance b of at least this fraction of |vu| (and not
/// subnormal) makes the 45-degree margin, >= 0.2 b, exceed every rounding
/// error in the differences and hypots, whose sum stays below 2^-48 |vu|.
constexpr double kMargin = 0x1p-40;

/// Sides of the scanned square around a point: +x, +y, -x, -y.
enum Side : int { kRight, kTop, kLeft, kBottom };

/// Octant k holds the directions whose angle lies in [45k, 45(k+1))
/// degrees. The larger of |dx| and |dy| points through kMajor[k] and is
/// never zero; the smaller points through kMinor[k] and may be zero only in
/// the even octants. Octants 0, 1, 6, 7 hold only dx > 0 and 2-5 only
/// dx < 0, apart from dx == 0 in octants 2 and 6.
constexpr std::array<int, 8> kMajor{kRight, kTop,    kTop,    kLeft,
                                    kLeft,  kBottom, kBottom, kRight};
constexpr std::array<int, 8> kMinor{kTop,    kRight, kLeft,  kTop,
                                    kBottom, kLeft,  kRight, kBottom};
constexpr unsigned kRightOctants = 0b11000011;
constexpr unsigned kLeftOctants = 0b00111100;

/// The octant of (dx, dy) != (0, 0), by exact sign and magnitude tests.
/// Negating (dx, dy) exactly adds 4 to it.
int octant_of(double dx, double dy) {
  if (dx > 0 && dy >= 0) return dy < dx ? 0 : 1;
  if (dx <= 0 && dy > 0) return -dx < dy ? 2 : 3;
  if (dx < 0 && dy <= 0) return dx < dy ? 4 : 5;
  return dx < -dy ? 6 : 7;
}

struct Slot {
  double x;
  double y;
  std::int32_t id;
};

struct Neighbor {
  std::int32_t id;
  double w;
};

/// Prim's input: each point's candidate neighbours (both directions of every
/// candidate pair) and its group of coincident points, or -1 when alone.
struct CandidateGraph {
  std::vector<std::int32_t> offset;  // n + 1, into adj
  std::vector<Neighbor> adj;
  std::vector<std::int32_t> group;
  std::vector<std::int32_t> group_offset;  // into group_members
  std::vector<std::int32_t> group_members;
};

/// One flat grid of square cells over the bounding box, row-major, each
/// cell's points sorted by (x, y, id) so that coincident points are
/// adjacent. Cell indices are monotone in the coordinates.
struct SeedGrid {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  double extent = 0.0;  // width + height: bounds every |dx| + |dy|
  double cell = 1.0, inv = 1.0;
  /// Bound on the rounding of a cell boundary against a coordinate.
  double slack = 0.0;
  int cols = 1, rows = 1;
  std::vector<std::int32_t> start;  // cols * rows + 1, into slots
  /// Per column x, the points of the column below row y, at
  /// x * (rows + 1) + y.
  std::vector<std::int32_t> column_below;
  /// Per cell, the least and greatest y of its points (its slots run in x
  /// order, so their first and last give the x range).
  std::vector<std::array<double, 2>> y_range;
  std::vector<Slot> slots;

  [[nodiscard]] int col(double x) const {
    return std::min(cols - 1, static_cast<int>((x - min_x) * inv));
  }
  [[nodiscard]] int row(double y) const {
    return std::min(rows - 1, static_cast<int>((y - min_y) * inv));
  }
  /// Points in column x, rows [y_lo, y_hi]; in row y, columns [x_lo, x_hi].
  [[nodiscard]] std::int32_t in_column(int x, int y_lo, int y_hi) const {
    const std::int32_t* below =
        &column_below[static_cast<std::size_t>(x) * (rows + 1)];
    return below[y_hi + 1] - below[y_lo];
  }
  [[nodiscard]] std::int32_t in_row(int y, int x_lo, int x_hi) const {
    const std::size_t row_start = static_cast<std::size_t>(y) * cols;
    return start[row_start + x_hi + 1] - start[row_start + x_lo];
  }
};

/// False when the box is too large or too small to grid.
bool build_grid(const geom::Pointset& points, SeedGrid& g) {
  g.min_x = g.max_x = points[0].x;
  g.min_y = g.max_y = points[0].y;
  for (const auto& p : points) {
    g.min_x = std::min(g.min_x, p.x);
    g.max_x = std::max(g.max_x, p.x);
    g.min_y = std::min(g.min_y, p.y);
    g.max_y = std::max(g.max_y, p.y);
  }
  const double width = g.max_x - g.min_x;
  const double height = g.max_y - g.min_y;
  g.extent = width + height;
  if (g.extent > 0.0) {
    if (!(g.extent >= kMinExtent && g.extent <= kMaxExtent)) return false;
    // Square cells holding ~kPointsPerCell points; a strip thinner than
    // one cell gets a single row (or column).
    const double per_cell =
        kPointsPerCell / static_cast<double>(points.size());
    g.cell = std::max(std::sqrt(width) * std::sqrt(height) *
                          std::sqrt(per_cell),
                      std::max(width, height) * per_cell);
    g.inv = 1.0 / g.cell;
    if (!std::isfinite(g.inv)) return false;
  }
  g.slack = (g.extent + g.cell) * 0x1p-40;
  g.cols = static_cast<int>(width * g.inv) + 1;
  g.rows = static_cast<int>(height * g.inv) + 1;

  const std::size_t cells = static_cast<std::size_t>(g.cols) * g.rows;
  std::vector<std::int32_t> cell_of(points.size());
  g.start.assign(cells + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = g.row(points[i].y) * g.cols + g.col(points[i].x);
    ++g.start[static_cast<std::size_t>(cell_of[i]) + 1];
  }
  std::partial_sum(g.start.begin(), g.start.end(), g.start.begin());
  g.slots.resize(points.size());
  std::vector<std::int32_t> fill(g.start.begin(), g.start.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    g.slots[static_cast<std::size_t>(fill[static_cast<std::size_t>(
        cell_of[i])]++)] = {points[i].x, points[i].y,
                            static_cast<std::int32_t>(i)};
  }
  g.column_below.assign(static_cast<std::size_t>(g.cols) * (g.rows + 1), 0);
  for (int x = 0; x < g.cols; ++x) {
    std::int32_t* below =
        &g.column_below[static_cast<std::size_t>(x) * (g.rows + 1)];
    for (int y = 0; y < g.rows; ++y) {
      below[y + 1] = below[y] + g.in_row(y, x, x);
    }
  }
  g.y_range.assign(cells, {kInf, -kInf});
  for (const Slot& slot : g.slots) {
    auto& range = g.y_range[static_cast<std::size_t>(
        cell_of[static_cast<std::size_t>(slot.id)])];
    range = {std::min(range[0], slot.y), std::max(range[1], slot.y)};
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (g.start[c + 1] - g.start[c] < 2) continue;
    std::sort(g.slots.begin() + g.start[c], g.slots.begin() + g.start[c + 1],
              [](const Slot& a, const Slot& b) {
                return std::tie(a.x, a.y, a.id) < std::tie(b.x, b.y, b.id);
              });
  }
  return true;
}

/// Per-octant least distances of one position; kInf where empty.
using OctantBest = std::array<double, 8>;

/// A power of two taking x > 0 into [1, 2), at most 2^1000 (so a subnormal
/// x scales to a normal number, exactly).
double unit_scale(double x) {
  if (x < 0x1p-1000) return 0x1p1000;
  return std::bit_cast<double>(
      (std::uint64_t{2046} - (std::bit_cast<std::uint64_t>(x) >> 52)) << 52);
}

/// 1 / unit_scale(x), exactly: the power of two at or below x.
double unit_scale_inverse(double x) {
  if (x < 0x1p-1000) return 0x1p-1000;
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(x) >> 52) << 52);
}

/// Finds, for each distinct position of one cell, the least distance in
/// every octant and the points at it: the cell's positions share a few
/// rings of cells around it, then each octant still open walks its own
/// wedge.
class NearestSearch {
 public:
  /// One position's search state, and then its results.
  struct Position {
    double vx = 0.0, vy = 0.0;
    unsigned live = 0;  // octants whose wedge meets the box
    unsigned open = 0;  // live octants not yet certified
    // Per octant, for its best point so far: a power of two taking it into
    // [1, 2), its squared scaled distance, the squared scaled distance a
    // point must not exceed to tie it, and an upper bound on its distance
    // (times kGuard).
    std::array<double, 8> scale{}, best_q{}, cut{}, bound{};
    std::array<double, 4> side_reach{};  // box edges from the position
    std::vector<std::pair<std::int32_t, int>> found;  // (slot, octant)
    // Results: least distance per octant, how far each octant's wedge runs
    // inside the box (an upper bound on its distances), and the range of
    // its ties in the caller's list.
    OctantBest best{}, reach{};
    std::size_t tie_begin = 0, tie_end = 0;
  };

  explicit NearestSearch(const SeedGrid& grid) : g_(grid) {}

  /// Searches around the positions whose first slots are `firsts`, all in
  /// cell (cx, cy). Appends each position's ties (every point at an
  /// octant's least distance, as (id, distance), octant in `tie_octants`),
  /// position by position. Coincident points are left out.
  void run(int cx, int cy, std::span<const std::int32_t> firsts,
           std::vector<Neighbor>& ties, std::vector<int>& tie_octants);

  [[nodiscard]] const Position& position(std::size_t k) const {
    return positions_[k];
  }

 private:
  void scan(Position& p, std::int32_t begin, std::int32_t end, int step,
            unsigned side, unsigned octants) const;
  void scan_range(Position& p, std::int32_t begin, std::int32_t end,
                  unsigned octants) const;
  void scan_cell(Position& p, std::size_t cell, unsigned octants) const;
  void walk_wedge(Position& p, int o, int r) const;
  void ring_cells(int r, unsigned open);
  static double cap(const Position& p, unsigned octants);

  const SeedGrid& g_;
  int cx_ = 0, cy_ = 0;
  std::vector<Position> positions_;
  std::vector<std::size_t> cells_;  // the non-empty cells of a ring
};

double NearestSearch::cap(const Position& p, unsigned octants) {
  double c = -kInf;
  for (unsigned bits = p.live & octants; bits != 0; bits &= bits - 1) {
    c = std::max(c, p.bound[static_cast<std::size_t>(std::countr_zero(bits))]);
  }
  return c;
}

/// Offers the slots from `begin` by `step` until `end` to `octants`, or
/// until |dx| exceeds every bound of those on `side` (the slots run in x
/// order).
void NearestSearch::scan(Position& p, std::int32_t begin, std::int32_t end,
                         int step, unsigned side, unsigned octants) const {
  side &= octants;
  double side_cap = side != 0 ? cap(p, side) : kInf;
  for (std::int32_t i = begin; i != end; i += step) {
    const Slot& s = g_.slots[static_cast<std::size_t>(i)];
    const double dx = s.x - p.vx;
    const double dy = s.y - p.vy;
    if (std::fabs(dx) > side_cap) return;
    if (dx == 0.0 && dy == 0.0) continue;  // coincident
    const int o = octant_of(dx, dy);
    if ((octants >> o & 1u) == 0) continue;
    // Before an octant's first point, scale is 0 and cut infinite.
    const double sdx = dx * p.scale[o];
    const double sdy = dy * p.scale[o];
    const double q = sdx * sdx + sdy * sdy;
    if (q > p.cut[o]) continue;
    p.found.emplace_back(i, o);
    if (q >= p.best_q[o]) continue;  // a near tie of the best
    // A new best point: rescale to it.
    const double major = std::max(std::fabs(dx), std::fabs(dy));
    p.scale[o] = unit_scale(major);
    const double bdx = dx * p.scale[o];
    const double bdy = dy * p.scale[o];
    p.best_q[o] = bdx * bdx + bdy * bdy;
    p.cut[o] = p.best_q[o] * kSquareGuard;
    p.bound[o] = std::sqrt(p.cut[o]) * unit_scale_inverse(major) * kGuard;
    if (side != 0) side_cap = cap(p, side);
  }
}

/// Scans a run of slots, which is in x order when it lies in one row.
void NearestSearch::scan_range(Position& p, std::int32_t begin,
                               std::int32_t end, unsigned octants) const {
  if (end - begin < kSortedScan) {
    scan(p, begin, end, 1, 0, octants);
    return;
  }
  // Outward from vx in both directions; x == vx in the middle.
  const Slot* first = g_.slots.data() + begin;
  const Slot* last = g_.slots.data() + end;
  const auto lo = static_cast<std::int32_t>(
      std::lower_bound(first, last, p.vx,
                       [](const Slot& s, double value) {
                         return s.x < value;
                       }) -
      g_.slots.data());
  const auto hi = static_cast<std::int32_t>(
      std::upper_bound(first, last, p.vx,
                       [](double value, const Slot& s) {
                         return value < s.x;
                       }) -
      g_.slots.data());
  scan(p, lo, hi, 1, 0, octants);
  scan(p, hi, end, 1, kRightOctants, octants);
  scan(p, lo - 1, begin - 1, -1, kLeftOctants, octants);
}

/// Scans a cell for `octants`, unless a large one lies beyond all their
/// bounds, or wholly in one octant that is not among them or lies beyond
/// its bound.
void NearestSearch::scan_cell(Position& p, std::size_t cell,
                              unsigned octants) const {
  const std::int32_t begin = g_.start[cell];
  const std::int32_t end = g_.start[cell + 1];
  if (end - begin >= kBoxTest) {
    // Differences are monotone in the coordinates, so every point's
    // (dx, dy) lies in this box, and an octant (a convex cone) holding its
    // corners holds all of it.
    const double x_lo = g_.slots[static_cast<std::size_t>(begin)].x - p.vx;
    const double x_hi = g_.slots[static_cast<std::size_t>(end) - 1].x - p.vx;
    const double y_lo = g_.y_range[cell][0] - p.vy;
    const double y_hi = g_.y_range[cell][1] - p.vy;
    const double near = std::max({x_lo, -x_hi, y_lo, -y_hi});
    if (near > 0.0) {  // p outside the box: no corner is (0, 0)
      if (near > cap(p, octants)) return;
      const int o = octant_of(x_lo, y_lo);
      if ((near > p.bound[o] || (octants >> o & 1u) == 0) &&
          octant_of(x_lo, y_hi) == o && octant_of(x_hi, y_lo) == o &&
          octant_of(x_hi, y_hi) == o) {
        return;
      }
    }
  }
  scan_range(p, begin, end, octants);
}

/// Finishes octant o after rings 0..r: walks the cells its wedge can reach
/// (as in ring_cells, minor offset <= major offset + 2) one column (or row)
/// of the major side at a time, skipping the scanned square and empty
/// stretches, until the best is certified or the wedge leaves the box.
void NearestSearch::walk_wedge(Position& p, int o, int r) const {
  const int major = kMajor[o];
  const bool along_x = major == kRight || major == kLeft;
  const int major_sign = major == kRight || major == kTop ? 1 : -1;
  const int minor_sign = kMinor[o] == kRight || kMinor[o] == kTop ? 1 : -1;
  const int own_major = along_x ? cx_ : cy_;
  const int own_minor = along_x ? cy_ : cx_;
  const int major_end = along_x ? g_.cols : g_.rows;
  const int minor_end = along_x ? g_.rows : g_.cols;
  const double offset = along_x ? p.vx - g_.min_x : p.vy - g_.min_y;
  for (int a = 0;; ++a) {
    const int m = own_major + major_sign * a;
    // Minor offsets [b_lo, b_hi] of this column, clipped to the grid.
    const int b_lo = a > r ? 0 : r + 1;
    const int b_hi = std::min(a + 2, minor_sign > 0
                                         ? minor_end - 1 - own_minor
                                         : own_minor);
    if (b_lo <= b_hi) {
      const int lo = minor_sign > 0 ? own_minor + b_lo : own_minor - b_hi;
      const int hi = minor_sign > 0 ? own_minor + b_hi : own_minor - b_lo;
      if ((along_x ? g_.in_column(m, lo, hi) : g_.in_row(m, lo, hi)) > 0) {
        for (int t = lo; t <= hi; ++t) {
          const std::size_t c = along_x
                                    ? static_cast<std::size_t>(t) * g_.cols + m
                                    : static_cast<std::size_t>(m) * g_.cols + t;
          if (g_.start[c] < g_.start[c + 1]) scan_cell(p, c, 1u << o);
        }
      }
    }
    // Every unscanned point of the octant lies beyond this column.
    const int next = m + major_sign;
    if (next < 0 || next >= major_end) return;
    const double beyond =
        (major_sign > 0 ? next * g_.cell - offset : offset - (m * g_.cell)) -
        g_.slack;
    if (p.bound[o] < beyond || beyond >= p.side_reach[major]) return;
  }
}

/// Collects the non-empty cells of ring r >= 1 that an open octant's wedge
/// can reach: along its major side from the axis to the diagonal, and the
/// corner of its minor side (one cell of slack for the rounding of cell
/// indices). Each side takes the hull of its requests; corners belong to
/// the rows.
void NearestSearch::ring_cells(int r, unsigned open) {
  cells_.clear();
  std::array<int, 4> lo{r + 1, r + 1, r + 1, r + 1};
  std::array<int, 4> hi{-r - 1, -r - 1, -r - 1, -r - 1};
  const auto want = [&](int side, int t_lo, int t_hi) {
    lo[side] = std::min(lo[side], std::max(t_lo, -r));
    hi[side] = std::max(hi[side], std::min(t_hi, r));
  };
  for (unsigned bits = open; bits != 0; bits &= bits - 1) {
    const int o = std::countr_zero(bits);
    const bool minor_up = kMinor[o] == kRight || kMinor[o] == kTop;
    const bool major_up = kMajor[o] == kRight || kMajor[o] == kTop;
    // Offsets run along x on the rows and along y on the columns.
    want(kMajor[o], minor_up ? 0 : -r, minor_up ? r : 0);
    want(kMinor[o], major_up ? r - 2 : -r, major_up ? r : 2 - r);
  }
  for (const int side : {kRight, kLeft}) {
    const int sign = side == kRight ? 1 : -1;
    if (lo[side] > hi[side]) continue;
    if (hi[side] == r) want(kTop, sign * r, sign * r);
    if (lo[side] == -r) want(kBottom, sign * r, sign * r);
    const int x = cx_ + sign * r;
    if (x < 0 || x >= g_.cols) continue;
    const int y_lo = std::max(cy_ + std::max(lo[side], 1 - r), 0);
    const int y_hi = std::min(cy_ + std::min(hi[side], r - 1), g_.rows - 1);
    for (int y = y_lo; y <= y_hi; ++y) {
      const std::size_t c = static_cast<std::size_t>(y) * g_.cols + x;
      if (g_.start[c] < g_.start[c + 1]) cells_.push_back(c);
    }
  }
  for (const int side : {kTop, kBottom}) {
    const int y = side == kTop ? cy_ + r : cy_ - r;
    if (lo[side] > hi[side] || y < 0 || y >= g_.rows) continue;
    const int x_lo = std::max(cx_ + lo[side], 0);
    const int x_hi = std::min(cx_ + hi[side], g_.cols - 1);
    if (x_lo > x_hi) continue;
    const std::size_t row = static_cast<std::size_t>(y) * g_.cols;
    if (g_.start[row + x_lo] == g_.start[row + x_hi + 1]) continue;
    for (int x = x_lo; x <= x_hi; ++x) {
      if (g_.start[row + x] < g_.start[row + x + 1]) cells_.push_back(row + x);
    }
  }
}

void NearestSearch::run(int cx, int cy, std::span<const std::int32_t> firsts,
                        std::vector<Neighbor>& ties,
                        std::vector<int>& tie_octants) {
  cx_ = cx;
  cy_ = cy;
  if (positions_.size() < firsts.size()) positions_.resize(firsts.size());
  unsigned open = 0;  // over all positions
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    Position& p = positions_[k];
    const Slot& v = g_.slots[static_cast<std::size_t>(firsts[k])];
    p.vx = v.x;
    p.vy = v.y;
    p.scale.fill(0.0);
    p.best_q.fill(kInf);
    p.cut.fill(kInf);
    p.bound.fill(kInf);
    p.found.clear();
    p.side_reach = {g_.max_x - v.x, g_.max_y - v.y, v.x - g_.min_x,
                    v.y - g_.min_y};
    // An octant needs its major side open, and an odd octant (whose minor
    // component is never zero) its minor side too.
    p.live = 0;
    for (int o = 0; o < 8; ++o) {
      const double major = p.side_reach[kMajor[o]];
      p.reach[o] = 2.0 * major;  // hypot <= 2^0.5 |major|
      if (major > 0.0 && (o % 2 == 0 || p.side_reach[kMinor[o]] > 0.0)) {
        p.live |= 1u << o;
      }
    }
    p.open = p.live;
    open |= p.open;
  }
  const std::size_t cell = static_cast<std::size_t>(cy) * g_.cols + cx;
  // A few shared rings settle the octants with near points; each octant
  // still open after them walks its own wedge.
  for (int r = 0; open != 0 && r <= kRings; ++r) {
    if (r > 0) {
      ring_cells(r, open);
    } else {
      cells_.assign(1, cell);
    }
    const int x0 = cx - r, x1 = cx + r, y0 = cy - r, y1 = cy + r;
    open = 0;
    for (std::size_t k = 0; k < firsts.size(); ++k) {
      Position& p = positions_[k];
      if (p.open == 0) continue;
      for (const std::size_t c : cells_) scan_cell(p, c, 0xFFu);
      // Lower bounds on |dx| or |dy| of any point beyond each side of the
      // scanned square; none lies beyond a side at the grid's edge.
      const double vox = p.vx - g_.min_x;
      const double voy = p.vy - g_.min_y;
      const std::array<double, 4> beyond{
          x1 + 1 >= g_.cols ? kInf : (x1 + 1) * g_.cell - vox - g_.slack,
          y1 + 1 >= g_.rows ? kInf : (y1 + 1) * g_.cell - voy - g_.slack,
          x0 <= 0 ? kInf : vox - x0 * g_.cell - g_.slack,
          y0 <= 0 ? kInf : voy - y0 * g_.cell - g_.slack};
      for (unsigned bits = p.open; bits != 0; bits &= bits - 1) {
        const int o = std::countr_zero(bits);
        const int major = kMajor[o];
        const int minor = kMinor[o];
        // An unscanned point of the wedge leaves the square through its
        // major side, or through its minor side, where |minor| <= |major|
        // also bounds it by the major side's reach. Its distance exceeds
        // the side's bound either way.
        double bound = kInf;
        if (beyond[major] < p.side_reach[major]) bound = beyond[major];
        if (beyond[minor] <
            std::min(p.side_reach[minor], p.side_reach[major])) {
          bound = std::min(bound, beyond[minor]);
        }
        if (bound == kInf || p.bound[o] < bound) p.open &= ~(1u << o);
      }
      open |= p.open;
    }
  }
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    Position& p = positions_[k];
    for (unsigned bits = p.open; bits != 0; bits &= bits - 1) {
      walk_wedge(p, std::countr_zero(bits), kRings);
    }
  }
  // The squared distances shortlist each octant; hypot decides.
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    Position& p = positions_[k];
    p.best.fill(kInf);
    p.tie_begin = ties.size();
    for (const auto& [slot, o] : p.found) {
      const Slot& s = g_.slots[static_cast<std::size_t>(slot)];
      const double sdx = (s.x - p.vx) * p.scale[o];
      const double sdy = (s.y - p.vy) * p.scale[o];
      if (sdx * sdx + sdy * sdy > p.cut[o]) continue;
      // geom::distance(v, s): negating a difference is exact, and hypot
      // depends only on magnitudes.
      const double h = std::hypot(s.x - p.vx, s.y - p.vy);
      if (h > p.best[o]) continue;
      if (h < p.best[o]) {
        // Drop this octant's ties so far: they were farther.
        std::size_t kept = p.tie_begin;
        for (std::size_t t = p.tie_begin; t < ties.size(); ++t) {
          if (tie_octants[t] != o) {
            ties[kept] = ties[t];
            tie_octants[kept++] = tie_octants[t];
          }
        }
        ties.resize(kept);
        tie_octants.resize(kept);
        p.best[o] = h;
      }
      ties.push_back({s.id, h});
      tie_octants.push_back(o);
    }
    p.tie_end = ties.size();
  }
}

/// True when the 45-degree margin of a nearest distance b drops every
/// farther point at distance h of its octant without a check.
bool margin_covers(double b, double h) {
  return b >= kMargin * h && b >= std::numeric_limits<double>::min();
}

/// The candidate graph, or nullopt when the box cannot be gridded.
std::optional<CandidateGraph> candidate_graph(const geom::Pointset& points) {
  SeedGrid g;
  if (!build_grid(points, g)) return std::nullopt;
  const std::size_t n = points.size();
  CandidateGraph graph;
  graph.group.assign(n, -1);
  graph.group_offset.push_back(0);
  struct Pair {
    std::int32_t a;
    std::int32_t b;
    double w;
  };
  std::vector<Pair> pairs;
  pairs.reserve(8 * n);
  // A position whose nearest point in some octant is too close for the
  // margin to cover the octant's reach: its slots, ties and octant minima.
  struct Near {
    std::int32_t begin, end;
    std::size_t tie_begin, tie_end;
    OctantBest best;
  };
  std::vector<Near> near;
  std::array<std::vector<std::size_t>, 8> near_in;  // by octant, into near
  std::vector<Neighbor> ties;
  std::vector<int> tie_octants;
  NearestSearch search(g);
  std::vector<std::int32_t> firsts, ends;
  for (int cy = 0; cy < g.rows; ++cy) {
    for (int cx = 0; cx < g.cols; ++cx) {
      const std::size_t c = static_cast<std::size_t>(cy) * g.cols + cx;
      if (g.start[c] == g.start[c + 1]) continue;
      // One search per distinct position: coincident points share it.
      firsts.clear();
      ends.clear();
      for (std::int32_t i = g.start[c]; i < g.start[c + 1];) {
        const Slot& v = g.slots[static_cast<std::size_t>(i)];
        std::int32_t j = i + 1;
        while (j < g.start[c + 1] &&
               g.slots[static_cast<std::size_t>(j)].x == v.x &&
               g.slots[static_cast<std::size_t>(j)].y == v.y) {
          ++j;
        }
        firsts.push_back(i);
        ends.push_back(j);
        i = j;
      }
      search.run(cx, cy, firsts, ties, tie_octants);
      for (std::size_t k = 0; k < firsts.size(); ++k) {
        const auto& p = search.position(k);
        const std::int32_t i = firsts[k];
        const std::int32_t j = ends[k];
        bool is_near = false;
        for (int o = 0; o < 8; ++o) {
          if (p.best[o] < kInf && !margin_covers(p.best[o], p.reach[o])) {
            near_in[static_cast<std::size_t>(o)].push_back(near.size());
            is_near = true;
          }
        }
        if (is_near) near.push_back({i, j, p.tie_begin, p.tie_end, p.best});
        const auto group =
            static_cast<std::int32_t>(graph.group_offset.size() - 1);
        for (std::int32_t m = i; m < j; ++m) {
          const std::int32_t id = g.slots[static_cast<std::size_t>(m)].id;
          for (std::size_t t = p.tie_begin; t < p.tie_end; ++t) {
            pairs.push_back({id, ties[t].id, ties[t].w});
          }
          if (j - i > 1) {
            graph.group[static_cast<std::size_t>(id)] = group;
            graph.group_members.push_back(id);
          }
        }
        if (j - i > 1) {
          graph.group_offset.push_back(
              static_cast<std::int32_t>(graph.group_members.size()));
        }
      }
    }
  }
  // A farther point u of v's octant o was dropped above on the margin of
  // v's nearest points, which covers u unless o is near at v. If u's
  // octant o + 4, which holds v, is not near at u either, the margin of u's
  // nearest points drops (v, u) from the other side, or keeps v as one of
  // them. What is left, pairs near at both ends, stays a candidate unless a
  // triangle v-w-u, (v, u) strictly its heaviest edge in hypot, drops it.
  const auto dropped_by = [&](const Near& from, int o, const Near& to,
                              double h) {
    if (!(from.best[o] < h)) return false;
    const Slot& t = g.slots[static_cast<std::size_t>(to.begin)];
    const geom::Point at{t.x, t.y};
    if (margin_covers(from.best[o], h)) return true;
    for (std::size_t k = from.tie_begin; k < from.tie_end; ++k) {
      if (tie_octants[k] == o &&
          geom::distance(points[static_cast<std::size_t>(ties[k].id)], at) <
              h) {
        return true;
      }
    }
    return false;
  };
  for (int o = 0; o < 4; ++o) {
    for (const std::size_t vi : near_in[static_cast<std::size_t>(o)]) {
      const Near& v = near[vi];
      const Slot& vs = g.slots[static_cast<std::size_t>(v.begin)];
      for (const std::size_t ui : near_in[static_cast<std::size_t>(o + 4)]) {
        const Near& u = near[ui];
        const Slot& us = g.slots[static_cast<std::size_t>(u.begin)];
        const double dx = us.x - vs.x;
        const double dy = us.y - vs.y;
        if (octant_of(dx, dy) != o) continue;
        const double h = std::hypot(dx, dy);
        if (h == v.best[o] || h == u.best[o + 4]) continue;  // already kept
        if (dropped_by(v, o, u, h) || dropped_by(u, o + 4, v, h)) continue;
        for (std::int32_t a = v.begin; a < v.end; ++a) {
          for (std::int32_t b = u.begin; b < u.end; ++b) {
            pairs.push_back({g.slots[static_cast<std::size_t>(a)].id,
                             g.slots[static_cast<std::size_t>(b)].id, h});
          }
        }
      }
    }
  }
  graph.offset.assign(n + 1, 0);
  for (const Pair& p : pairs) {
    ++graph.offset[static_cast<std::size_t>(p.a) + 1];
    ++graph.offset[static_cast<std::size_t>(p.b) + 1];
  }
  std::partial_sum(graph.offset.begin(), graph.offset.end(),
                   graph.offset.begin());
  graph.adj.resize(2 * pairs.size());
  std::vector<std::int32_t> fill(graph.offset.begin(), graph.offset.end() - 1);
  for (const Pair& p : pairs) {
    graph.adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(p.a)]++)] =
        {p.b, p.w};
    graph.adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(p.b)]++)] =
        {p.a, p.w};
  }
  return graph;
}

/// Prim's fringe: a binary heap of point ids ordered by (key, id), which
/// knows where each id sits so that a lowered key sifts up in place.
class Fringe {
 public:
  explicit Fringe(const std::vector<double>& key)
      : key_(key), where_(key.size(), -1) {}

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Inserts v, or restores order after its key fell.
  void lowered(std::int32_t v) {
    auto i = where_[static_cast<std::size_t>(v)];
    if (i < 0) {
      i = static_cast<std::int32_t>(heap_.size());
      heap_.push_back(v);
    }
    while (i > 0) {
      const std::int32_t parent = (i - 1) / 2;
      if (!before(v, heap_[static_cast<std::size_t>(parent)])) break;
      place(heap_[static_cast<std::size_t>(parent)], i);
      i = parent;
    }
    place(v, i);
  }

  /// Removes and returns the least (key, id).
  std::int32_t pop() {
    const std::int32_t top = heap_.front();
    where_[static_cast<std::size_t>(top)] = -1;
    const std::int32_t last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return top;
    const auto size = static_cast<std::int32_t>(heap_.size());
    std::int32_t i = 0;
    for (;;) {
      std::int32_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size &&
          before(heap_[static_cast<std::size_t>(child) + 1],
                 heap_[static_cast<std::size_t>(child)])) {
        ++child;
      }
      if (!before(heap_[static_cast<std::size_t>(child)], last)) break;
      place(heap_[static_cast<std::size_t>(child)], i);
      i = child;
    }
    place(last, i);
    return top;
  }

 private:
  [[nodiscard]] bool before(std::int32_t a, std::int32_t b) const {
    const double ka = key_[static_cast<std::size_t>(a)];
    const double kb = key_[static_cast<std::size_t>(b)];
    return ka < kb || (ka == kb && a < b);
  }
  void place(std::int32_t v, std::int32_t i) {
    heap_[static_cast<std::size_t>(i)] = v;
    where_[static_cast<std::size_t>(v)] = i;
  }

  const std::vector<double>& key_;
  std::vector<std::int32_t> heap_;
  std::vector<std::int32_t> where_;  // heap index, or -1 when absent
};

/// Prim over the candidate graph with dense_prim_mst's rules: start at
/// point 0, relax with strict < from each point as it joins, and take the
/// fringe point with the least (distance, index).
std::vector<Edge> prim(const CandidateGraph& graph, std::size_t n) {
  std::vector<double> best(n, kInf);
  std::vector<std::int32_t> attach(n, -1);
  std::vector<char> in_tree(n, 0);
  std::vector<char> group_done(graph.group_offset.size(), 0);
  Fringe fringe(best);
  const auto relax = [&](std::int32_t from, std::int32_t to, double d) {
    const auto t = static_cast<std::size_t>(to);
    if (!in_tree[t] && d < best[t]) {
      best[t] = d;
      attach[t] = from;
      fringe.lowered(to);
    }
  };

  std::vector<Edge> result;
  result.reserve(n - 1);
  std::int32_t current = 0;
  in_tree[0] = 1;
  for (std::size_t step = 1; step < n; ++step) {
    const auto c = static_cast<std::size_t>(current);
    // Coincident points sit at distance 0 from the first of them to join,
    // and no later one can improve on that.
    if (const std::int32_t g = graph.group[c];
        g >= 0 && !group_done[static_cast<std::size_t>(g)]) {
      group_done[static_cast<std::size_t>(g)] = 1;
      for (std::int32_t k = graph.group_offset[static_cast<std::size_t>(g)];
           k < graph.group_offset[static_cast<std::size_t>(g) + 1]; ++k) {
        relax(current, graph.group_members[static_cast<std::size_t>(k)], 0.0);
      }
    }
    for (std::int32_t k = graph.offset[c]; k < graph.offset[c + 1]; ++k) {
      const Neighbor& nb = graph.adj[static_cast<std::size_t>(k)];
      relax(current, nb.id, nb.w);
    }
    if (fringe.empty()) {
      throw std::logic_error("euclidean_mst: candidate graph disconnected");
    }
    current = fringe.pop();
    in_tree[static_cast<std::size_t>(current)] = 1;
    result.push_back(
        Edge{attach[static_cast<std::size_t>(current)], current});
  }
  return result;
}

}  // namespace

std::vector<Edge> euclidean_mst(const geom::Pointset& points) {
  require_at_least_two(points, "euclidean_mst");
  geom::require_finite(points, "euclidean_mst");
  const auto graph = candidate_graph(points);
  if (!graph) return dense_prim_mst(points);
  return prim(*graph, points.size());
}


std::vector<Edge> dense_prim_mst(const geom::Pointset& points) {
  require_at_least_two(points, "dense_prim_mst");
  const std::size_t n = points.size();
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::int32_t> attach(n, -1);
  std::vector<bool> in_tree(n, false);

  std::vector<Edge> result;
  result.reserve(n - 1);

  std::size_t current = 0;
  in_tree[0] = true;
  for (std::size_t step = 1; step < n; ++step) {
    // Relax distances from the most recently added vertex.
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d = geom::distance(points[current], points[v]);
      if (d < best[v]) {
        best[v] = d;
        attach[v] = static_cast<std::int32_t>(current);
      }
    }
    // Pick the closest fringe vertex; tie-break on index for determinism.
    std::size_t pick = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      if (pick == n || best[v] < best[pick]) pick = v;
    }
    in_tree[pick] = true;
    result.push_back(Edge{attach[pick], static_cast<std::int32_t>(pick)});
    current = pick;
  }
  return result;
}

std::vector<Edge> kruskal_mst(const geom::Pointset& points) {
  require_at_least_two(points, "kruskal_mst");
  const auto edges = sorted_complete_graph(points);
  UnionFind uf(points.size());
  std::vector<Edge> result;
  result.reserve(points.size() - 1);
  for (const auto& e : edges) {
    if (uf.unite(static_cast<std::size_t>(e.u),
                 static_cast<std::size_t>(e.v))) {
      result.push_back(Edge{e.u, e.v});
      if (result.size() + 1 == points.size()) break;
    }
  }
  return result;
}

std::vector<Edge> line_mst(const geom::Pointset& points) {
  require_at_least_two(points, "line_mst");
  std::vector<std::int32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  for (const auto& p : points) {
    if (p.y != 0.0) {
      throw std::invalid_argument("line_mst: pointset is not collinear on y=0");
    }
  }
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const double xa = points[static_cast<std::size_t>(a)].x;
    const double xb = points[static_cast<std::size_t>(b)].x;
    if (xa != xb) return xa < xb;
    return a < b;
  });
  std::vector<Edge> result;
  result.reserve(points.size() - 1);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    result.push_back(Edge{order[i], order[i + 1]});
  }
  return result;
}

std::vector<Edge> k_fold_mst(const geom::Pointset& points, int k) {
  require_at_least_two(points, "k_fold_mst");
  if (k < 1) throw std::invalid_argument("k_fold_mst: k must be >= 1");
  auto all = sorted_complete_graph(points);
  std::vector<bool> used(all.size(), false);
  std::vector<Edge> result;
  for (int round = 0; round < k; ++round) {
    UnionFind uf(points.size());
    for (std::size_t idx = 0; idx < all.size(); ++idx) {
      if (used[idx]) continue;
      const auto& e = all[idx];
      if (uf.unite(static_cast<std::size_t>(e.u),
                   static_cast<std::size_t>(e.v))) {
        used[idx] = true;
        result.push_back(Edge{e.u, e.v});
      }
    }
    if (uf.num_components() > 1) break;  // not enough edges left to span
  }
  return result;
}

double total_weight(const geom::Pointset& points, std::span<const Edge> edges) {
  double sum = 0.0;
  for (const Edge& e : edges) {
    sum += geom::distance(points.at(static_cast<std::size_t>(e.u)),
                          points.at(static_cast<std::size_t>(e.v)));
  }
  return sum;
}

bool is_spanning_tree(std::size_t n, std::span<const Edge> edges) {
  if (n == 0) return false;
  if (edges.size() != n - 1) return false;
  UnionFind uf(n);
  for (const Edge& e : edges) {
    if (e.u < 0 || e.v < 0 || static_cast<std::size_t>(e.u) >= n ||
        static_cast<std::size_t>(e.v) >= n) {
      return false;
    }
    if (!uf.unite(static_cast<std::size_t>(e.u),
                  static_cast<std::size_t>(e.v))) {
      return false;  // cycle
    }
  }
  return uf.num_components() == 1;
}

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0), components_(n) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --components_;
  return true;
}

}  // namespace wagg::mst
