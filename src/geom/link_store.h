#ifndef WAGG_GEOM_LINK_STORE_H
#define WAGG_GEOM_LINK_STORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "geom/link_view.h"
#include "geom/point.h"

namespace wagg::geom {

/// The canonical mutation-aware link container: a column store over stable
/// 64-bit link ids that survive node insertion/removal/movement.
///
/// Where LinkSet/LinkView are per-epoch snapshots (dense indices, immutable),
/// the store is the cross-epoch source of truth the dynamic planner mutates
/// in place:
///
///   add         allocates the next id (ids are never reused)
///   remove      kills an id
///   flip        swaps sender/receiver IN PLACE — an orientation diff, not a
///               container rebuild
///   set_length  refreshes the cached length after an endpoint moved
///
/// Every effective mutation lands in one change log: the ids changed since
/// the last clear_changes(), each logged once, in first-change order, with
/// one flag per kind of change:
///
///   kGeometry     add, remove, touch, and a value-changing set_length
///   kOrientation  add and flip
///
/// The dynamic planner clears the log before each epoch's first store
/// mutation; its conflict-index sync and its dirty scan both read it — the
/// basis of O(dirty) epoch work instead of assuming a fresh world.
///
/// Endpoints are stable NODE ids (e.g. mst::IncrementalMst ids), not dense
/// point indices; the store never touches positions, and it does not check
/// pairs for uniqueness: which pairs are links is the tree owner's to say.
class LinkStore {
 public:
  LinkStore() = default;

  /// Allocates a new live link. Self-loops and non-positive lengths throw
  /// std::invalid_argument.
  LinkId add(std::int32_t sender, std::int32_t receiver, double length);

  /// Kills a live link. Throws std::invalid_argument on dead/unknown ids.
  void remove(LinkId id);

  /// In-place orientation flip: swaps sender and receiver and logs
  /// kOrientation.
  void flip(LinkId id);

  /// Refreshes the length column. A no-op (nothing logged) when the value
  /// is unchanged bit-for-bit, so unconditional refresh sweeps do not dirty
  /// clean links.
  void set_length(LinkId id, double length);

  /// Marks a link changed without altering any column — for geometry
  /// context changes the columns cannot express (an endpoint moved but the
  /// cached length happens to be identical: SINR distances to other links
  /// still shifted).
  void touch(LinkId id);

  [[nodiscard]] bool alive(LinkId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < alive_.size() &&
           alive_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t num_live() const noexcept { return num_live_; }
  /// Total ids ever allocated (live + dead).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return alive_.size();
  }

  [[nodiscard]] std::int32_t sender(LinkId id) const {
    return sender_[checked(id)];
  }
  [[nodiscard]] std::int32_t receiver(LinkId id) const {
    return receiver_[checked(id)];
  }
  [[nodiscard]] double length(LinkId id) const { return length_[checked(id)]; }

  /// Change-log flags (see the class comment).
  static constexpr std::uint8_t kGeometry = 1;
  static constexpr std::uint8_t kOrientation = 2;

  /// The ids changed since the last clear_changes(), each once, in
  /// first-change order. Dead ids stay in the log.
  [[nodiscard]] std::span<const LinkId> changed() const noexcept {
    return changed_;
  }
  /// The id's change flags since the last clear_changes(); 0 when it is
  /// unchanged or unknown. Dead ids are readable.
  [[nodiscard]] std::uint8_t change(LinkId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < change_.size()
               ? change_[static_cast<std::size_t>(id)]
               : 0;
  }
  /// Empties the log, resetting the flags of the logged ids only.
  void clear_changes() noexcept;

  /// Live ids in increasing order — the canonical dense order of views.
  [[nodiscard]] std::vector<LinkId> live_ids() const;

  /// Builds the per-epoch dense snapshot: links in increasing-id order,
  /// endpoints remapped through node_index (stable node id -> dense point
  /// index into `points`, -1 for absent nodes — an std::invalid_argument if
  /// a live link references one). Costs O(live); no distances are
  /// recomputed (lengths are the maintained column).
  [[nodiscard]] LinkView snapshot(Pointset points,
                                  std::span<const std::int32_t> node_index)
      const;

 private:
  [[nodiscard]] std::size_t checked(LinkId id) const;
  void log_change(std::size_t slot, std::uint8_t flags);

  std::vector<std::int32_t> sender_;
  std::vector<std::int32_t> receiver_;
  std::vector<double> length_;
  std::vector<bool> alive_;
  std::vector<std::uint8_t> change_;  ///< per-id flags, 0 = unchanged
  std::vector<LinkId> changed_;       ///< the log, first-change order
  std::size_t num_live_ = 0;
};

}  // namespace wagg::geom

#endif  // WAGG_GEOM_LINK_STORE_H
