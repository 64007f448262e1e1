#include "mst/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace wagg::mst {

IncrementalMst::IncrementalMst(const geom::Pointset& initial)
    : points_(initial), alive_(initial.size(), true),
      num_alive_(initial.size()), adj_(initial.size()),
      comp_stamp_(initial.size(), 0) {
  dtree_.ensure_vertices(initial.size());
  rebuild_grid();
  if (initial.size() >= 2) {
    // Seed from the batch algorithm (the candidate-graph Prim, ~20 ms at
    // n = 8192) once; every later update is localized.
    const auto seed_edges = euclidean_mst(initial);
    std::vector<NodeId> ids(initial.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<NodeId>(i);
    }
    seed_tree_from(seed_edges, ids);
  }
}

const geom::Point& IncrementalMst::position(NodeId id) const {
  if (!alive(id)) {
    throw std::invalid_argument("IncrementalMst: dead or unknown node id");
  }
  return points_[static_cast<std::size_t>(id)];
}

NodeId IncrementalMst::node_at(const geom::Point& position) const {
  return grid_.find_exact(position);
}

std::vector<NodeId> IncrementalMst::alive_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(num_alive_);
  for (std::size_t id = 0; id < alive_.size(); ++id) {
    if (alive_[id]) ids.push_back(static_cast<NodeId>(id));
  }
  return ids;
}

double IncrementalMst::squared_weight(NodeId a, NodeId b) const {
  return geom::squared_distance(points_[static_cast<std::size_t>(a)],
                                points_[static_cast<std::size_t>(b)]);
}

double IncrementalMst::weight() const {
  double sum = 0.0;
  for (std::size_t id = 0; id < adj_.size(); ++id) {
    for (const AdjEntry& e : adj_[id]) {
      if (static_cast<NodeId>(id) < e.neighbor) {
        sum += std::sqrt(dtree_.weight2(e.edge));
      }
    }
  }
  return sum;
}

std::vector<IdEdge> IncrementalMst::edges() const {
  std::vector<IdEdge> edges;
  edges.reserve(num_alive_);
  for (std::size_t id = 0; id < adj_.size(); ++id) {
    for (const AdjEntry& e : adj_[id]) {
      if (static_cast<NodeId>(id) < e.neighbor) {
        edges.push_back(IdEdge{static_cast<NodeId>(id), e.neighbor});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const IdEdge& x, const IdEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

std::vector<Edge> IncrementalMst::compact_edges() const {
  // Dense index per alive id via a scratch array (ids are small integers).
  std::vector<std::int32_t> index(alive_.size(), -1);
  std::int32_t next = 0;
  for (std::size_t id = 0; id < alive_.size(); ++id) {
    if (alive_[id]) index[id] = next++;
  }
  const auto tree = edges();
  std::vector<Edge> result;
  result.reserve(tree.size());
  for (const auto& e : tree) {
    result.push_back(Edge{index[static_cast<std::size_t>(e.a)],
                          index[static_cast<std::size_t>(e.b)]});
  }
  return result;
}

MstDelta IncrementalMst::take_delta() {
  const MstDelta journal = std::exchange(delta_, MstDelta{});
  MstDelta out;
  out.rebuilt = journal.rebuilt;
  if (out.rebuilt) return out;
  // Journal entries are canonical (a < b); sum each edge's entries, then
  // list it once, at its first entry, when the sum is nonzero.
  const auto key = [](const IdEdge& e) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a))
            << 32) |
           static_cast<std::uint32_t>(e.b);
  };
  std::unordered_map<std::uint64_t, int> net;
  for (const auto& e : journal.added) ++net[key(e)];
  for (const auto& e : journal.removed) --net[key(e)];
  for (const auto& e : journal.added) {
    if (int& sum = net[key(e)]; sum > 0) {
      out.added.push_back(e);
      sum = 0;
    }
  }
  for (const auto& e : journal.removed) {
    if (int& sum = net[key(e)]; sum < 0) {
      out.removed.push_back(e);
      sum = 0;
    }
  }
  return out;
}

void IncrementalMst::ensure_node(NodeId id) {
  const auto needed = static_cast<std::size_t>(id) + 1;
  dtree_.ensure_vertices(needed);
  if (adj_.size() < needed) adj_.resize(needed);
  if (comp_stamp_.size() < needed) comp_stamp_.resize(needed, 0);
}

void IncrementalMst::rebuild_grid() {
  if (num_alive_ == 0) {
    grid_.reset(1.0);
    grid_built_points_ = 0;
    return;
  }
  double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;
  bool first = true;
  for (std::size_t id = 0; id < alive_.size(); ++id) {
    if (!alive_[id]) continue;
    const auto& p = points_[id];
    if (first) {
      min_x = max_x = p.x;
      min_y = max_y = p.y;
      first = false;
    } else {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
  }
  // Cell ~ the mean nearest-neighbor spacing of a uniform instance, so ring
  // searches resolve in O(1) cells there; extreme spreads (exponential
  // chains) degrade to the grid's linear-sweep fallback, never below it.
  const double diag = std::hypot(max_x - min_x, max_y - min_y);
  const double cell =
      diag > 0.0
          ? diag / (std::sqrt(static_cast<double>(num_alive_)) + 1.0)
          : 1.0;
  grid_.reset(cell);
  for (std::size_t id = 0; id < alive_.size(); ++id) {
    if (alive_[id]) grid_.insert(static_cast<NodeId>(id), points_[id]);
  }
  grid_built_points_ = num_alive_;
}

void IncrementalMst::add_tree_edge(NodeId a, NodeId b, double w2) {
  const EdgeHandle e = dtree_.link(a, b, w2);
  adj_[static_cast<std::size_t>(a)].push_back(AdjEntry{b, e});
  adj_[static_cast<std::size_t>(b)].push_back(AdjEntry{a, e});
}

void IncrementalMst::remove_tree_edge(NodeId a, const AdjEntry& entry) {
  const NodeId b = entry.neighbor;
  for (NodeId side : {a, b}) {
    auto& list = adj_[static_cast<std::size_t>(side)];
    const auto it = std::find_if(
        list.begin(), list.end(),
        [&](const AdjEntry& e) { return e.edge == entry.edge; });
    if (it == list.end()) {
      throw std::logic_error(
          "IncrementalMst: tree edge missing from adjacency");
    }
    *it = list.back();
    list.pop_back();
  }
  dtree_.cut(entry.edge);
}

void IncrementalMst::seed_tree_from(const std::vector<Edge>& compact,
                                    const std::vector<NodeId>& ids) {
  for (const auto& e : compact) {
    const NodeId a = ids[static_cast<std::size_t>(e.u)];
    const NodeId b = ids[static_cast<std::size_t>(e.v)];
    add_tree_edge(a < b ? a : b, a < b ? b : a, squared_weight(a, b));
  }
}

NodeId IncrementalMst::add_point(const geom::Point& position) {
  const auto id = static_cast<NodeId>(points_.size());
  points_.push_back(position);
  alive_.push_back(true);
  ++num_alive_;
  ensure_node(id);
  // Re-tune the grid when the instance drifted 4x from the size it was
  // built for (a rebuild already includes the new point).
  if (num_alive_ > 4 * grid_built_points_ + 8) {
    rebuild_grid();
  } else {
    grid_.insert(id, position);
  }
  attach(id);
  return id;
}

void IncrementalMst::remove_point(NodeId id) {
  if (!alive(id)) {
    throw std::invalid_argument("IncrementalMst: dead or unknown node id");
  }
  detach(id);
}

void IncrementalMst::move_point(NodeId id, const geom::Point& position) {
  if (!alive(id)) {
    throw std::invalid_argument("IncrementalMst: dead or unknown node id");
  }
  // A genuine two-step update. Merely re-attaching the moved node to the
  // otherwise-unchanged tree would be wrong: a node moving into the middle
  // of a long tree edge obsoletes that edge even though the edge is not
  // incident to the node. Detaching first restores the MST of the other
  // points; attaching is then the standard insertion update.
  detach(id);
  points_[static_cast<std::size_t>(id)] = position;
  alive_[static_cast<std::size_t>(id)] = true;
  ++num_alive_;
  grid_.insert(id, position);
  attach(id);
}

NodeId IncrementalMst::add_point_deferred(const geom::Point& position) {
  const auto id = static_cast<NodeId>(points_.size());
  points_.push_back(position);
  alive_.push_back(true);
  ++num_alive_;
  grid_.insert(id, position);
  return id;
}

void IncrementalMst::remove_point_deferred(NodeId id) {
  if (!alive(id)) {
    throw std::invalid_argument("IncrementalMst: dead or unknown node id");
  }
  grid_.erase(id, points_[static_cast<std::size_t>(id)]);
  alive_[static_cast<std::size_t>(id)] = false;
  --num_alive_;
}

void IncrementalMst::move_point_deferred(NodeId id,
                                         const geom::Point& position) {
  if (!alive(id)) {
    throw std::invalid_argument("IncrementalMst: dead or unknown node id");
  }
  grid_.erase(id, points_[static_cast<std::size_t>(id)]);
  points_[static_cast<std::size_t>(id)] = position;
  grid_.insert(id, position);
}

void IncrementalMst::rebuild() {
  dtree_.clear();
  dtree_.ensure_vertices(points_.size());
  adj_.assign(points_.size(), {});
  comp_stamp_.assign(points_.size(), 0);
  stamp_clock_ = 0;
  if (num_alive_ >= 2) {
    const auto ids = alive_ids();
    geom::Pointset compact;
    compact.reserve(ids.size());
    for (const auto id : ids) {
      compact.push_back(points_[static_cast<std::size_t>(id)]);
    }
    seed_tree_from(euclidean_mst(compact), ids);
  }
  rebuild_grid();
  delta_ = MstDelta{};
  delta_.rebuilt = true;
}

void IncrementalMst::attach(NodeId id) {
  if (num_alive_ < 2) return;

  // Cycle property: every old non-tree edge stays non-tree after inserting
  // a point, so the new MST lies inside (old tree edges) + (the point's
  // star) — and of the star, only the nearest neighbor per 60-degree cone
  // can enter an MST (two points in one cone are < 60 degrees apart, so
  // the farther one always loses an exchange). The maintained grid yields
  // those <= 6 candidates; each is then the textbook dynamic-tree MST
  // insertion: keep the tree unless the candidate beats the heaviest edge
  // on the cycle it closes, in which case swap via one cut + one link.
  const auto& p = points_[static_cast<std::size_t>(id)];
  const auto cones = grid_.cone_nearest(
      p, [&](std::int32_t other) { return other == id; });
  std::array<WeightedEdge, 6> candidates;
  std::size_t k = 0;
  for (const auto& cone : cones) {
    if (cone.id < 0) continue;
    const auto q = static_cast<NodeId>(cone.id);
    candidates[k++] = q < id ? WeightedEdge{cone.w2, q, id}
                             : WeightedEdge{cone.w2, id, q};
  }
  if (k == 0) {
    throw std::logic_error(
        "IncrementalMst::attach: candidate grid returned no neighbors");
  }
  // Insertion sort over the k <= 6 candidates (one per cone). (w2, a, b) is
  // a total order, so this is the order std::sort gives; std::sort over the
  // fixed-size array trips a false GCC 12 -Warray-bounds under ASan/UBSan.
  for (std::size_t i = 1; i < k; ++i) {
    const WeightedEdge moving = candidates[i];
    std::size_t j = i;
    for (; j > 0 && moving < candidates[j - 1]; --j) {
      candidates[j] = candidates[j - 1];
    }
    candidates[j] = moving;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const WeightedEdge& cand = candidates[i];
    const NodeId q = cand.a == id ? cand.b : cand.a;
    if (!dtree_.connected(id, q)) {
      add_tree_edge(cand.a, cand.b, cand.w2);
      delta_.added.push_back(IdEdge{cand.a, cand.b});
      continue;
    }
    const EdgeHandle m = dtree_.path_max(id, q);
    const WeightedEdge heaviest{dtree_.weight2(m), dtree_.edge_a(m),
                                dtree_.edge_b(m)};
    if (cand < heaviest) {
      ++stats_.path_max_swaps;
      delta_.removed.push_back(IdEdge{heaviest.a, heaviest.b});
      remove_tree_edge(heaviest.a,
                       AdjEntry{heaviest.b, static_cast<EdgeHandle>(m)});
      add_tree_edge(cand.a, cand.b, cand.w2);
      delta_.added.push_back(IdEdge{cand.a, cand.b});
    }
  }
}

void IncrementalMst::detach(NodeId id) {
  // Re-tune while the grid still mirrors the alive set (a rebuild includes
  // id; the erase below then removes it).
  if (4 * num_alive_ + 8 < grid_built_points_) rebuild_grid();
  alive_[static_cast<std::size_t>(id)] = false;
  --num_alive_;
  grid_.erase(id, points_[static_cast<std::size_t>(id)]);

  std::vector<NodeId> seeds;
  auto& incident = adj_[static_cast<std::size_t>(id)];
  seeds.reserve(incident.size());
  while (!incident.empty()) {
    const AdjEntry entry = incident.back();
    seeds.push_back(entry.neighbor);
    delta_.removed.push_back(entry.neighbor < id
                                 ? IdEdge{entry.neighbor, id}
                                 : IdEdge{id, entry.neighbor});
    remove_tree_edge(id, entry);
  }
  if (num_alive_ < 2 || seeds.size() <= 1) return;
  reconnect(std::move(seeds));
}

void IncrementalMst::reconnect(std::vector<NodeId> seeds) {
  // Cut property: the new MST is the surviving forest plus safe cross
  // edges. Boruvka over the <= 6 leftover components (Euclidean MSTs have
  // max degree 6): each round links every component's minimum outgoing
  // edge, found by grid nearest-neighbor searches over the component's
  // members with its own members excluded. One component per round may
  // abstain — every other one still merges, so rounds strictly shrink the
  // component count — and the lockstep enumeration below always elects the
  // one that proves largest, so the big side of a split is never walked.
  for (;;) {
    std::vector<NodeId> reps;
    for (const NodeId s : seeds) {
      bool known = false;
      for (const NodeId r : reps) known = known || dtree_.connected(s, r);
      if (!known) reps.push_back(s);
    }
    if (reps.size() <= 1) return;
    ++stats_.boruvka_rounds;

    struct Walk {
      std::vector<NodeId> stack;
      std::vector<NodeId> members;
      std::uint64_t stamp = 0;
      bool done = false;
    };
    std::vector<Walk> walks(reps.size());
    for (std::size_t i = 0; i < walks.size(); ++i) {
      walks[i].stamp = ++stamp_clock_;
      walks[i].stack.push_back(reps[i]);
      walks[i].members.push_back(reps[i]);
      comp_stamp_[static_cast<std::size_t>(reps[i])] = walks[i].stamp;
    }
    std::size_t finished = 0;
    while (finished + 1 < walks.size()) {
      for (auto& walk : walks) {
        if (walk.done) continue;
        if (walk.stack.empty()) {
          walk.done = true;
          if (++finished + 1 >= walks.size()) break;
          continue;
        }
        const NodeId u = walk.stack.back();
        walk.stack.pop_back();
        for (const AdjEntry& e : adj_[static_cast<std::size_t>(u)]) {
          auto& stamp = comp_stamp_[static_cast<std::size_t>(e.neighbor)];
          if (stamp == walk.stamp) continue;
          stamp = walk.stamp;
          walk.stack.push_back(e.neighbor);
          walk.members.push_back(e.neighbor);
        }
      }
    }

    std::vector<WeightedEdge> candidates;
    candidates.reserve(walks.size());
    for (std::size_t i = 0; i < walks.size(); ++i) {
      const auto& walk = walks[i];
      if (!walk.done) continue;  // the (one) abstaining largest component
      // Seed the running best with the rep-to-rep cross edges (valid
      // outgoing edges by construction), then let it cap every member's
      // grid search: interior members — whose nearest outsider is across
      // the whole component — terminate after a few rings instead of
      // falling back to a full sweep. Exactness survives because the grid
      // answers distances up to the cap exactly, ties included.
      WeightedEdge best{std::numeric_limits<double>::infinity(), -1, -1};
      for (std::size_t j = 0; j < walks.size(); ++j) {
        if (j == i) continue;
        const NodeId u = reps[i];
        const NodeId v = reps[j];
        const double w2 = squared_weight(u, v);
        const WeightedEdge cand = v < u ? WeightedEdge{w2, v, u}
                                        : WeightedEdge{w2, u, v};
        if (cand < best) best = cand;
      }
      for (const NodeId u : walk.members) {
        const auto near = grid_.nearest(
            points_[static_cast<std::size_t>(u)],
            [&](std::int32_t v) {
              return comp_stamp_[static_cast<std::size_t>(v)] == walk.stamp;
            },
            best.w2);
        if (near.id < 0) continue;
        const auto v = static_cast<NodeId>(near.id);
        const WeightedEdge cand = v < u ? WeightedEdge{near.w2, v, u}
                                        : WeightedEdge{near.w2, u, v};
        if (cand < best) best = cand;
      }
      if (best.a < 0) {
        throw std::logic_error(
            "IncrementalMst::reconnect: component has no outgoing edge");
      }
      candidates.push_back(best);
    }
    std::sort(candidates.begin(), candidates.end());
    bool linked = false;
    for (const auto& c : candidates) {
      if (dtree_.connected(c.a, c.b)) continue;
      add_tree_edge(c.a, c.b, c.w2);
      delta_.added.push_back(IdEdge{c.a, c.b});
      linked = true;
    }
    if (!linked) {
      throw std::logic_error("IncrementalMst::reconnect: no progress");
    }
  }
}

}  // namespace wagg::mst
