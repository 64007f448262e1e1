#include "dynamic/dynamic_planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "conflict/fgraph.h"
#include "geom/point.h"
#include "mst/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/repair.h"
#include "schedule/verify.h"
#include "sinr/feasibility.h"

namespace wagg::dynamic {

using core::Stage;

namespace {

/// The planner's registry handles, resolved once (registration takes the
/// registry mutex; after that every epoch publishes against stable
/// references — no lookups, no locks). Registry::reset() zeroes values but
/// keeps registrations, so the references stay valid across metric windows.
struct PlannerMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& epochs = reg.counter("dynamic.epochs");
  obs::Counter& mutations = reg.counter("dynamic.mutations");
  obs::Counter& dirty_links = reg.counter("dynamic.dirty_links");
  obs::Counter& full_replans = reg.counter("dynamic.full_replans");
  obs::Counter& oracle_calls = reg.counter("dynamic.oracle_calls");
  obs::Counter& reused_slots = reg.counter("dynamic.reused_slots");
  obs::Counter& touched_slots = reg.counter("dynamic.touched_slots");
  obs::Counter& audit_failures = reg.counter("dynamic.audit_failures");
  obs::Counter& delta_added = reg.counter("mst.delta_added");
  obs::Counter& delta_removed = reg.counter("mst.delta_removed");
  obs::Counter& rebuilds = reg.counter("mst.rebuilds");
  obs::Counter& path_max_swaps = reg.counter("mst.path_max_swaps");
  obs::Counter& boruvka_rounds = reg.counter("mst.boruvka_rounds");
  obs::Counter& grid_fallbacks = reg.counter("mst.grid_fallback_sweeps");
  obs::Counter& rows_queried = reg.counter("conflict.rows_queried");
  obs::Counter& dedupe_hits = reg.counter("conflict.dedupe_hits");
  obs::Counter& cells_pruned = reg.counter("conflict.cells_pruned");
  obs::Counter& row_cache_hits = reg.counter("conflict.row_cache_hits");
  obs::Counter& row_cache_misses = reg.counter("conflict.row_cache_misses");
  obs::Counter& row_cache_patches = reg.counter("conflict.row_cache_patches");
  obs::Counter& row_cache_invalidations =
      reg.counter("conflict.row_cache_invalidations");
  obs::Histogram& epoch_ms = reg.histogram("dynamic.epoch_ms");
  obs::Histogram& mst_ms = reg.histogram("dynamic.mst_ms");
  obs::Histogram& conflict_ms = reg.histogram("dynamic.conflict_ms");
  obs::Histogram& recolor_ms = reg.histogram("dynamic.recolor_ms");
  obs::Histogram& repair_ms = reg.histogram("dynamic.repair_ms");
  obs::Histogram& dirty_per_epoch =
      reg.histogram("dynamic.dirty_links_per_epoch");
};

PlannerMetrics& planner_metrics() {
  static PlannerMetrics metrics;
  return metrics;
}

}  // namespace

void DynamicOptions::validate() const {
  config.validate();
  if (config.tree != core::TreeKind::kMst) {
    throw std::invalid_argument(
        "DynamicOptions: only TreeKind::kMst supports incremental updates");
  }
  if (!(full_replan_fraction > 0.0 && full_replan_fraction <= 1.0)) {
    throw std::invalid_argument(
        "DynamicOptions: full_replan_fraction must lie in (0, 1]");
  }
}

void DynamicPlanner::sync_conflict_index() {
  // A live link enters the index, or is refreshed there, from the store's
  // current endpoints and length.
  const auto put = [&](geom::LinkId link) {
    const auto& sender = mst_.position(store_.sender(link));
    const auto& receiver = mst_.position(store_.receiver(link));
    if (conflict_index_.contains(link)) {
      conflict_index_.update(link, sender, receiver, store_.length(link));
    } else {
      conflict_index_.add(link, sender, receiver, store_.length(link));
    }
  };
  if (reseed_index_) {
    // reconcile_full's request: rebuild from the store. A reconcile can
    // follow a FAILED epoch whose touched-node list died with the exception
    // frame — a node may have moved while its uplink length stayed
    // bit-identical, so no log entry named the link and the index would keep
    // the endpoint's OLD position (wrong grid cell, wrong distance prune). The
    // reconcile is already O(n), so the rebuild is asymptotically free.
    conflict_index_.clear();
    for (const auto link : store_.live_ids()) put(link);
    reseed_index_ = false;
    return;
  }
  for (const auto link : store_.changed()) {
    // A flip leaves the undirected endpoint pair — the conflict metric's
    // only input — untouched; the index needs no update.
    if (!(store_.change(link) & geom::LinkStore::kGeometry)) continue;
    if (store_.alive(link)) {
      put(link);
    } else if (conflict_index_.contains(link)) {
      conflict_index_.remove(link);
    }
  }
}

DynamicPlanner::DynamicPlanner(const geom::Pointset& initial,
                               DynamicOptions options)
    : options_(std::move(options)), mst_(geom::Pointset{}) {
  options_.validate();
  if (initial.size() < 2) {
    throw std::invalid_argument("DynamicPlanner: need >= 2 initial points");
  }
  geom::require_finite(initial, "DynamicPlanner");
  if (options_.config.sink < 0 ||
      static_cast<std::size_t>(options_.config.sink) >= initial.size()) {
    throw std::invalid_argument("DynamicPlanner: sink out of range");
  }
  sink_id_ = options_.config.sink;

  EpochReport report;
  report.epoch = 0;
  {
    obs::Span epoch_span("epoch");
    {
      // The seed tree (mst::euclidean_mst) is epoch 0's mst_update stage.
      obs::StageSpan stage(report.times.slot(Stage::kMstUpdate));
      mst_ = mst::IncrementalMst(initial);
      for (std::size_t id = 0; id < initial.size(); ++id) {
        const NodeId first = mst_.node_at(initial[id]);
        if (first != static_cast<NodeId>(id)) {
          throw std::invalid_argument(
              "DynamicPlanner: initial points " + std::to_string(first) +
              " and " + std::to_string(id) + " coincide");
        }
      }
    }
    replan({}, report);
    if (options_.audit) run_audit(report);
  }
  publish_epoch_metrics(report);
  report_ = report;
}

EpochReport DynamicPlanner::apply(std::span<const Mutation> mutations) {
  EpochReport report;
  report.epoch = report_.epoch + 1;
  report.mutations_applied = mutations.size();

  obs::Span epoch_span("epoch");
  obs::StageSpan mst_stage(report.times.slot(Stage::kMstUpdate));
  // Bulk epochs (>= n/8 mutations) defer tree updates and rebuild once
  // with euclidean_mst. On uniform points with mixed add/remove/move churn,
  // per-mutation upkeep costs 0.03 ms at n=2048 and 0.06-0.08 ms at
  // n=8192, and one rebuild 4.8 ms and 21-24 ms: they cross near 140-170
  // and 290-350 mutations (~0.04-0.08 n), below n/8. The threshold stays
  // at n/8 all the same: moving it changes which epochs rebuild, and a
  // rebuild can pick a different tree among equal-weight ones.
  const bool bulk =
      mutations.size() >= std::max<std::size_t>(8, mst_.num_alive() / 8);
  std::vector<NodeId> touched;
  touched.reserve(mutations.size());
  try {
    for (const auto& mutation : mutations) {
      if (mutation.kind != Mutation::Kind::kRemove) {
        // A NaN or infinite coordinate has no grid cell and no distance.
        if (!geom::is_finite(mutation.position)) {
          throw std::invalid_argument(
              std::string("DynamicPlanner: mutation ") +
              (mutation.kind == Mutation::Kind::kAdd
                   ? "adds a node"
                   : "moves node " + std::to_string(mutation.node)) +
              " at non-finite " +
              geom::nonfinite_coordinate(mutation.position));
        }
        // Two nodes on one point would make a zero-length tree link.
        const NodeId occupant = mst_.node_at(mutation.position);
        if (occupant >= 0 && (mutation.kind == Mutation::Kind::kAdd ||
                              occupant != mutation.node)) {
          throw std::invalid_argument(
              "DynamicPlanner: mutation places a node on node " +
              std::to_string(occupant) + "'s position");
        }
      }
      switch (mutation.kind) {
        case Mutation::Kind::kAdd:
          touched.push_back(bulk ? mst_.add_point_deferred(mutation.position)
                                 : mst_.add_point(mutation.position));
          break;
        case Mutation::Kind::kRemove:
          if (mutation.node == sink_id_) {
            throw std::invalid_argument(
                "DynamicPlanner: the sink cannot be removed");
          }
          if (mst_.num_alive() <= 2) {
            throw std::invalid_argument(
                "DynamicPlanner: removal would drop below 2 nodes");
          }
          if (bulk) {
            mst_.remove_point_deferred(mutation.node);
          } else {
            mst_.remove_point(mutation.node);
          }
          break;
        case Mutation::Kind::kMove:
          if (bulk) {
            mst_.move_point_deferred(mutation.node, mutation.position);
          } else {
            mst_.move_point(mutation.node, mutation.position);
          }
          touched.push_back(mutation.node);
          break;
      }
    }
  } catch (...) {
    // Applied prefix stays applied (documented). The prefix's touched nodes
    // are lost with this frame, so carried slot certificates can no longer
    // tell clean links from moved ones, and the store's lengths may be
    // stale. Drop everything FIRST — the carried state must be invalidated
    // even if the recovery rebuild below throws too — so the next epoch
    // reconciles the store and replans (and re-verifies) from scratch.
    invalidate_carried_state();
    // The tree must still be consistent for the next epoch: bulk epochs
    // postponed their updates entirely, and even a per-mutation update can
    // die partway through its in-place dtree/adjacency/grid edits — so
    // rebuild unconditionally (error path; one euclidean_mst is cheap).
    mst_.rebuild();
    throw;
  }
  if (bulk) mst_.rebuild();
  mst_stage.close();

  try {
    replan(touched, report);
    if (options_.audit) run_audit(report);
  } catch (...) {
    // replan may have mutated the store/index/plan partway (or run_audit
    // died after the plan advanced); either way the carried validity chain
    // is broken, so drop it before propagating — the next successful epoch
    // re-anchors from scratch.
    invalidate_carried_state();
    throw;
  }
  publish_epoch_metrics(report);
  report_ = report;
  return report;
}

void DynamicPlanner::invalidate_carried_state() {
  std::fill(slot_of_.begin(), slot_of_.end(), -1);
  prev_slot_count_.clear();
  force_reconcile_ = true;
}

void DynamicPlanner::ensure_node(NodeId id) {
  const auto needed = static_cast<std::size_t>(id) + 1;
  if (parent_.size() < needed) {
    parent_.resize(needed, kNoParent);
    uplink_.resize(needed, geom::kNoLink);
  }
}

bool DynamicPlanner::reaches_sink(NodeId node) const {
  NodeId cur = node;
  for (std::size_t steps = 0; steps <= parent_.size(); ++steps) {
    if (cur == sink_id_) return true;
    const NodeId up = parent_[static_cast<std::size_t>(cur)];
    if (up < 0) return false;  // broken root (or inconsistent state)
    cur = up;
  }
  throw std::logic_error("DynamicPlanner: parent-chain cycle detected");
}

void DynamicPlanner::rehang(NodeId child, NodeId parent) {
  // Attach the detached component at `child` and re-root it there: walk the
  // old parent chain up to the broken root, reversing one pointer — and
  // flipping one store link in place — per hop. Cost is the path length,
  // not the component (let alone the instance).
  geom::LinkId new_link = store_.add(
      child, parent,
      geom::distance(mst_.position(child), mst_.position(parent)));
  NodeId cur = child;
  NodeId new_parent = parent;
  for (std::size_t steps = 0; steps <= parent_.size(); ++steps) {
    const NodeId old_parent = parent_[static_cast<std::size_t>(cur)];
    const geom::LinkId old_link = uplink_[static_cast<std::size_t>(cur)];
    parent_[static_cast<std::size_t>(cur)] = new_parent;
    uplink_[static_cast<std::size_t>(cur)] = new_link;
    if (old_parent == kNoParent) return;  // reached the broken root
    if (old_parent < 0) {
      throw std::logic_error(
          "DynamicPlanner::rehang: chain ran into the sink — the attached "
          "component already contained it");
    }
    store_.flip(old_link);  // was cur -> old_parent, now old_parent -> cur
    new_parent = cur;
    new_link = old_link;
    cur = old_parent;
  }
  throw std::logic_error("DynamicPlanner::rehang: parent-chain cycle");
}

void DynamicPlanner::apply_structural_diff(const mst::MstDelta& delta) {
  // The delta is the exact diff against the pre-epoch tree, which the store
  // still mirrors. Removals first: break the child side's parent pointer.
  // The store drops the link; the component below keeps its orientation
  // toward the (now broken) root.
  for (const auto& [a, b] : delta.removed) {
    NodeId child;
    if (parent_[static_cast<std::size_t>(a)] == b) {
      child = a;
    } else if (parent_[static_cast<std::size_t>(b)] == a) {
      child = b;
    } else {
      throw std::logic_error(
          "DynamicPlanner: removed edge inconsistent with orientation");
    }
    store_.remove(uplink_[static_cast<std::size_t>(child)]);
    uplink_[static_cast<std::size_t>(child)] = geom::kNoLink;
    parent_[static_cast<std::size_t>(child)] = kNoParent;
  }

  std::vector<mst::IdEdge> pending = delta.added;
  for (const auto& [a, b] : pending) ensure_node(b);  // canonical a < b

  // Reattach detached components. An added edge is processable once one
  // endpoint reaches the sink through already-settled structure; chained
  // reconnections settle over multiple passes (the final tree is connected,
  // so each pass resolves at least one edge).
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t k = 0; k < pending.size();) {
      const auto [a, b] = pending[k];
      if (reaches_sink(a)) {
        rehang(b, a);
      } else if (reaches_sink(b)) {
        rehang(a, b);
      } else {
        ++k;
        continue;
      }
      progressed = true;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (!progressed) {
      throw std::logic_error(
          "DynamicPlanner: edge diff left the tree disconnected");
    }
  }
}

void DynamicPlanner::reconcile_full() {
  // From-scratch orientation in id-space (BFS from the sink), reconciled
  // against the store so surviving pairs keep their stable ids: stale links
  // are dropped, mis-directed ones flipped in place, missing ones added,
  // and every length refreshed (bit-identical values are not logged, so
  // clean links stay clean).
  const auto ids = mst_.alive_ids();
  if (!ids.empty()) ensure_node(ids.back());
  for (const auto id : ids) {
    parent_[static_cast<std::size_t>(id)] = kNoParent;
    uplink_[static_cast<std::size_t>(id)] = geom::kNoLink;
  }

  parent_[static_cast<std::size_t>(sink_id_)] = -1;
  std::vector<NodeId> frontier{sink_id_};
  std::size_t head = 0;
  while (head < frontier.size()) {
    const NodeId v = frontier[head++];
    for (const auto& [w, edge] : mst_.neighbors(v)) {
      if (parent_[static_cast<std::size_t>(w)] != kNoParent) continue;
      parent_[static_cast<std::size_t>(w)] = v;
      frontier.push_back(w);
    }
  }
  if (frontier.size() != ids.size()) {
    throw std::logic_error(
        "DynamicPlanner: maintained tree does not span the alive nodes");
  }

  for (const auto link : store_.live_ids()) {
    const NodeId s = store_.sender(link);
    const NodeId r = store_.receiver(link);
    const bool live_pair = mst_.alive(s) && mst_.alive(r);
    if (live_pair && parent_[static_cast<std::size_t>(s)] == r) {
      uplink_[static_cast<std::size_t>(s)] = link;
    } else if (live_pair && parent_[static_cast<std::size_t>(r)] == s) {
      store_.flip(link);
      uplink_[static_cast<std::size_t>(r)] = link;
    } else {
      store_.remove(link);
    }
  }
  for (const auto id : ids) {
    if (id == sink_id_) continue;
    const NodeId up = parent_[static_cast<std::size_t>(id)];
    const double len =
        geom::distance(mst_.position(id), mst_.position(up));
    if (uplink_[static_cast<std::size_t>(id)] == geom::kNoLink) {
      uplink_[static_cast<std::size_t>(id)] = store_.add(id, up, len);
    } else {
      store_.set_length(uplink_[static_cast<std::size_t>(id)], len);
    }
  }

  // The conflict index is re-seeded from the reconciled store, not from the
  // changes logged above (see sync_conflict_index).
  reseed_index_ = true;
}

void DynamicPlanner::refresh_touched(const std::vector<NodeId>& touched) {
  for (const NodeId v : touched) {
    if (!mst_.alive(v)) continue;  // added/moved, then removed in-batch
    for (const auto& [u, edge] : mst_.neighbors(v)) {
      const NodeId child = parent_[static_cast<std::size_t>(u)] == v ? u : v;
      const geom::LinkId link = uplink_[static_cast<std::size_t>(child)];
      const NodeId up = parent_[static_cast<std::size_t>(child)];
      store_.set_length(
          link, geom::distance(mst_.position(child), mst_.position(up)));
      // The length alone cannot express a moved endpoint (SINR distances to
      // every other link shifted even when the length survived), so log a
      // geometry change unconditionally.
      store_.touch(link);
    }
  }
}

void DynamicPlanner::replan(const std::vector<NodeId>& touched,
                            EpochReport& report) {
  const auto& config = options_.config;

  // ---- bring the id-space store in line with the maintained tree; its
  // change log then names exactly the links this epoch changed ----
  obs::StageSpan stage(report.times.slot(Stage::kOrient));
  store_.clear_changes();
  const auto delta = mst_.take_delta();
  {
    auto& metrics = planner_metrics();
    metrics.delta_added.add(delta.added.size());
    metrics.delta_removed.add(delta.removed.size());
    if (delta.rebuilt) metrics.rebuilds.add();
  }
  if (force_reconcile_ || delta.rebuilt) {
    reconcile_full();
    force_reconcile_ = false;
  } else {
    apply_structural_diff(delta);
  }
  refresh_touched(touched);

  // ---- dense per-epoch snapshot (increasing-id order) ----
  auto ids = mst_.alive_ids();
  geom::Pointset points;
  points.reserve(ids.size());
  for (const auto id : ids) points.push_back(mst_.position(id));
  std::vector<std::int32_t> node_index(
      ids.empty() ? 0 : static_cast<std::size_t>(ids.back()) + 1, -1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    node_index[static_cast<std::size_t>(ids[i])] =
        static_cast<std::int32_t>(i);
  }
  const auto sink_it = std::lower_bound(ids.begin(), ids.end(), sink_id_);
  const auto sink_idx = static_cast<std::int32_t>(sink_it - ids.begin());
  geom::LinkSet links(store_.snapshot(points, node_index));
  const std::size_t n = links.size();

  // ---- conflict upkeep: apply the logged store changes to the index.
  // Nothing has queried the index this epoch yet. ----
  stage.next(report.times.slot(Stage::kConflictMaintain));
  sync_conflict_index();
  stage.next(report.times.slot(Stage::kDirtyDetect));

  // ---- dirty detection via the change log (no conflict graph
  // needed: the pairwise conflict relation of two geometrically unchanged
  // links cannot change). Clean links seed the coloring with their previous
  // final slot (final slots are independent sets, so the seed is proper);
  // seed[i] < 0 marks link i dirty.
  // Fixed-power modes with ambient noise couple every power to the global
  // max link length; any change then invalidates every link.
  const bool global = config.power_mode == core::PowerMode::kGlobal;
  const bool noise_coupled = !global && config.sinr.noise > 0.0;
  if (slot_of_.size() < store_.capacity()) {
    slot_of_.resize(store_.capacity(), -1);
  }
  std::vector<int> seed(n, -1);
  std::size_t dirty_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(links.id_of(i));
    if (noise_coupled || slot_of_[id] < 0 ||
        store_.change(links.id_of(i)) != 0) {
      ++dirty_count;
    } else {
      seed[i] = slot_of_[id];
    }
  }
  report.dirty_links = dirty_count;
  report.num_nodes = points.size();
  report.num_links = n;

  const bool full =
      prev_slot_count_.empty() ||
      static_cast<double>(dirty_count) >
          options_.full_replan_fraction * static_cast<double>(n);
  report.full_replan = full;

  schedule::Schedule final_schedule;
  // kGlobal: (dense link, log2 power) of every link whose slot a check
  // certified this epoch. Links of carried slots keep their entries.
  std::vector<std::pair<std::size_t, double>> certified;
  if (full) {
    // ---- fallback: full replan, warm-started from the surviving slots so
    // the coloring stays stable; repair + verification run from scratch and
    // re-anchor the carried-over validity chain ----
    stage.close();
    obs::Span full_span("full_replan");
    core::WarmStart warm{std::move(seed)};
    auto scheduled = core::schedule_links(
        links, config, &report.times,
        prev_slot_count_.empty() ? nullptr : &warm, &conflict_index_);
    report.touched_slots = scheduled.schedule.length();
    report.valid = scheduled.verification.ok();
    if (global) {
      // Verification certified every slot; rewrite every entry from it.
      const auto& lp = scheduled.power.log2_powers();
      for (std::size_t i = 0; i < n; ++i) certified.emplace_back(i, lp[i]);
    }
    final_schedule = std::move(scheduled.schedule);
  } else {
    // ---- localized path ----
    // Conflict adjacency is needed only for the dirty links: the relation
    // between two unchanged links cannot change, and clean links keep their
    // colors. The persistent index answers those rows against its standing
    // per-class grids — output-sensitive queries with ZERO per-epoch
    // rebuild (the O(n) grid construction the from-scratch subset query
    // pays every call).
    stage.next(report.times.slot(Stage::kConflictQuery));
    std::vector<std::size_t> dirty_indices;
    dirty_indices.reserve(dirty_count);
    for (std::size_t i = 0; i < n; ++i) {
      if (seed[i] < 0) dirty_indices.push_back(i);
    }
    if (config.order == core::ColoringOrder::kDecreasingLength) {
      dirty_indices = schedule::pack_order(links, dirty_indices);
    } else {
      std::sort(dirty_indices.begin(), dirty_indices.end(),
                [&](std::size_t a, std::size_t b) {
                  if (links.length(a) != links.length(b)) {
                    return links.length(a) < links.length(b);
                  }
                  return a < b;
                });
    }
    const auto spec = core::spec_for_mode(config);
    const auto neighbor_rows =
        conflict_index_.neighbors(links, spec, dirty_indices);

    // Seeded recolor: surviving links keep their final slot; only dirty
    // links are first-fit colored against their conflict rows.
    stage.next(report.times.slot(Stage::kRecolor));
    const auto recolored =
        coloring::greedy_recolor_rows(dirty_indices, neighbor_rows, seed);

    // Slot carry-over + patch repair. Soundness does NOT assume oracle
    // monotonicity under member departure (the power-control oracle's
    // iterative bound is conservative and need not be monotone): a slot's
    // verdict is carried over only when its membership is UNCHANGED (the
    // oracle is deterministic, so the old certificate applies verbatim);
    // any class that shrank is re-checked — and repacked if the oracle now
    // rejects it — before serving as a kept sub-slot or a final slot.
    // Global power joins under the power-control rule, which keeps each
    // accepted Perron vector; fixed-power modes keep their is_feasible
    // trials.
    stage.next(report.times.slot(Stage::kRepair));
    const auto rule =
        global ? schedule::JoinRule::power_control(links, config.sinr)
               : schedule::JoinRule(core::oracle_for_mode(links, config));
    std::vector<std::vector<std::size_t>> classes(
        static_cast<std::size_t>(recolored.num_colors));
    for (std::size_t i = 0; i < n; ++i) {
      classes[static_cast<std::size_t>(recolored.color_of[i])].push_back(i);
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      auto& members = classes[c];
      if (members.empty()) continue;
      std::vector<std::size_t> kept;
      std::vector<std::size_t> loose;
      for (const auto i : members) {
        (seed[i] < 0 ? loose : kept).push_back(i);
      }
      // Unchanged membership <=> every previous member survived clean; the
      // old certificate then applies verbatim (oracles are deterministic).
      // A shrunk class is handled by patch_slot's uncertified-kept path:
      // one fresh check, or a repack if the conservative oracle now
      // rejects it.
      const bool kept_certified =
          kept.empty() || (c < prev_slot_count_.size() &&
                           kept.size() == prev_slot_count_[c]);
      if (loose.empty() && kept_certified) {
        ++report.reused_slots;
        final_schedule.slots.push_back(std::move(kept));
        continue;
      }
      auto patch = schedule::patch_slot(links, {std::move(kept)}, loose,
                                        rule, kept_certified);
      report.oracle_calls += patch.oracle_calls;
      report.touched_slots += patch.sub_slots.size();
      for (std::size_t s = 0; s < patch.sub_slots.size(); ++s) {
        const auto& lp = patch.log2_powers[s];
        for (std::size_t a = 0; a < lp.size(); ++a) {
          certified.emplace_back(patch.sub_slots[s][a], lp[a]);
        }
        final_schedule.slots.push_back(std::move(patch.sub_slots[s]));
      }
    }
    report.valid = schedule::is_partition(final_schedule, n);
  }

  stage.close();
  report.slots = final_schedule.length();
  report.rate = final_schedule.empty() ? 0.0 : final_schedule.coloring_rate();

  // ---- persist state for the next epoch (id-indexed arrays: no key
  // remapping, no hashing) ----
  prev_slot_count_.assign(final_schedule.slots.size(), 0);
  for (std::size_t s = 0; s < final_schedule.slots.size(); ++s) {
    prev_slot_count_[s] = final_schedule.slots[s].size();
    for (const auto i : final_schedule.slots[s]) {
      slot_of_[static_cast<std::size_t>(links.id_of(i))] =
          static_cast<int>(s);
    }
  }
  if (global) {
    log2_power_of_.resize(store_.capacity(), 0.0);
    for (const auto& [i, p] : certified) {
      log2_power_of_[static_cast<std::size_t>(links.id_of(i))] = p;
    }
  }
  current_.points = std::move(points);
  current_.ids = std::move(ids);
  current_.sink = sink_idx;
  current_.links = std::move(links);
  current_.schedule = std::move(final_schedule);
  current_.rate = report.rate;
}

sinr::PowerAssignment DynamicPlanner::power() const {
  const auto& links = current_.links;
  if (options_.config.power_mode != core::PowerMode::kGlobal) {
    return core::power_for_mode(links, options_.config);
  }
  std::vector<double> lp(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    lp[i] = log2_power_of_[static_cast<std::size_t>(links.id_of(i))];
  }
  return sinr::PowerAssignment(std::move(lp), "power-control");
}

void DynamicPlanner::run_audit(EpochReport& report) {
  // The audit is one leaf of the epoch's table. Its span encloses a whole
  // from-scratch plan, whose stages go to that plan's own table.
  obs::StageSpan stage(report.times.slot(Stage::kAudit));
  auto config = options_.config;
  config.sink = current_.sink;  // compact index of the stable sink id

  core::StageTimes full_times;
  const auto full = core::plan_aggregation(current_.points, config,
                                           &full_times);
  report.audit_full_ms = full_times.total_ms();
  report.audit_full_slots = full.schedule().length();
  report.audit_full_rate = full.rate();

  // From-scratch feasibility check of the incremental schedule.
  const auto oracle = core::oracle_for_mode(current_.links, config);
  const auto verification =
      schedule::verify_schedule(current_.links, current_.schedule, oracle);
  report.audit_valid = verification.ok();

  // The powers the plan ships must certify every slot from scratch: carried
  // vectors included, not only the slots re-solved above.
  const auto power = this->power();
  report.audit_power_valid = std::all_of(
      current_.schedule.slots.begin(), current_.schedule.slots.end(),
      [&](const std::vector<std::size_t>& slot) {
        return sinr::is_feasible(current_.links, slot, config.sinr, power,
                                 1e-6);
      });

  // The incremental MST must weigh exactly as much as a from-scratch MST.
  double incremental_weight = 0.0;
  for (std::size_t i = 0; i < current_.links.size(); ++i) {
    incremental_weight += current_.links.length(i);
  }
  double full_weight = 0.0;
  for (std::size_t i = 0; i < full.tree.links.size(); ++i) {
    full_weight += full.tree.links.length(i);
  }
  report.audit_tree_match =
      std::abs(incremental_weight - full_weight) <=
      1e-9 * std::max(1.0, std::abs(full_weight));

  // The diff-maintained store must equal a from-scratch re-orientation of
  // the maintained tree: same directed pairs, same lengths (bit-identical —
  // both sides run geom::distance on the same coordinates).
  auto oriented =
      mst::orient_toward_sink(current_.points, mst_.compact_edges(),
                              current_.sink);
  bool store_match =
      oriented.links.size() == store_.num_live() &&
      store_.num_live() == current_.links.size();
  for (std::size_t i = 0; store_match && i < oriented.links.size(); ++i) {
    const NodeId s = current_.ids[static_cast<std::size_t>(
        oriented.links.link(i).sender)];
    const NodeId r = current_.ids[static_cast<std::size_t>(
        oriented.links.link(i).receiver)];
    // Each oriented link must be its sender's uplink. The counts are equal,
    // so a duplicate or stray store link leaves some sender unmatched.
    const auto slot = static_cast<std::size_t>(s);
    const geom::LinkId link =
        slot < uplink_.size() ? uplink_[slot] : geom::kNoLink;
    store_match = store_.alive(link) && store_.sender(link) == s &&
                  store_.receiver(link) == r &&
                  store_.length(link) == oriented.links.length(i);
  }
  report.audit_store_match = store_match;

  // The maintained conflict index must answer every link's row exactly as a
  // from-scratch bucket-grid query over the same snapshot — the standing
  // grids never drift from the live geometry. The first call materializes
  // every row it misses; the second is then answered from the diff-patched
  // row cache, so equality of the pair proves cached rows never drift from
  // a from-scratch recomputation either.
  std::vector<std::size_t> all_links(current_.links.size());
  std::iota(all_links.begin(), all_links.end(), std::size_t{0});
  const auto spec = core::spec_for_mode(config);
  const auto index_rows =
      conflict_index_.neighbors(current_.links, spec, all_links);
  report.audit_index_match =
      index_rows ==
          conflict::conflict_neighbors_bucketed(current_.links, spec,
                                                all_links) &&
      index_rows == conflict_index_.neighbors(current_.links, spec,
                                              all_links);

  report.audited = true;
  if (!report.audit_ok()) planner_metrics().audit_failures.add();
}

void DynamicPlanner::publish_epoch_metrics(const EpochReport& report) {
  auto& metrics = planner_metrics();
  metrics.epochs.add();
  metrics.mutations.add(report.mutations_applied);
  metrics.dirty_links.add(report.dirty_links);
  if (report.full_replan) metrics.full_replans.add();
  metrics.oracle_calls.add(report.oracle_calls);
  metrics.reused_slots.add(report.reused_slots);
  metrics.touched_slots.add(report.touched_slots);

  const auto mst_stats = mst_.stats();
  metrics.path_max_swaps.add(mst_stats.path_max_swaps -
                             mst_stats_mark_.path_max_swaps);
  metrics.boruvka_rounds.add(mst_stats.boruvka_rounds -
                             mst_stats_mark_.boruvka_rounds);
  metrics.grid_fallbacks.add(mst_stats.grid_fallback_sweeps -
                             mst_stats_mark_.grid_fallback_sweeps);
  mst_stats_mark_ = mst_stats;

  const auto conflict_stats = conflict_index_.stats();
  metrics.rows_queried.add(conflict_stats.rows_queried -
                           conflict_stats_mark_.rows_queried);
  metrics.dedupe_hits.add(conflict_stats.dedupe_hits -
                          conflict_stats_mark_.dedupe_hits);
  metrics.cells_pruned.add(conflict_stats.cells_pruned -
                           conflict_stats_mark_.cells_pruned);
  metrics.row_cache_hits.add(conflict_stats.row_cache_hits -
                             conflict_stats_mark_.row_cache_hits);
  metrics.row_cache_misses.add(conflict_stats.row_cache_misses -
                               conflict_stats_mark_.row_cache_misses);
  metrics.row_cache_patches.add(conflict_stats.row_cache_patches -
                                conflict_stats_mark_.row_cache_patches);
  metrics.row_cache_invalidations.add(
      conflict_stats.row_cache_invalidations -
      conflict_stats_mark_.row_cache_invalidations);
  conflict_stats_mark_ = conflict_stats;

  const core::StageTimes& t = report.times;
  metrics.epoch_ms.record(t.incremental_ms());
  metrics.mst_ms.record(t.tree_ms());
  metrics.conflict_ms.record(t.conflict_ms());
  metrics.recolor_ms.record(t.coloring_ms());
  metrics.repair_ms.record(t[Stage::kRepair]);
  metrics.dirty_per_epoch.record(static_cast<double>(report.dirty_links));
}

}  // namespace wagg::dynamic
