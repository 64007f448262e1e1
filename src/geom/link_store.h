#ifndef WAGG_GEOM_LINK_STORE_H
#define WAGG_GEOM_LINK_STORE_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/link_view.h"
#include "geom/point.h"

namespace wagg::geom {

/// Observer of LinkStore mutations. Derived-data maintainers (e.g.
/// DynamicPlanner, which queues the named links for its conflict::
/// ConflictIndex sync) attach one to learn of every store mutation without
/// the mutating code knowing they exist.
///
/// Callbacks fire AFTER the store has updated its own state, exactly once
/// per effective mutation:
///   on_add         the id is live and its columns readable
///   on_remove      the id is already dead — column accessors throw; read
///                  what you need from your own mirror
///   on_flip        sender/receiver swapped in place (the undirected
///                  geometry is unchanged)
///   on_set_length  the length column changed value (bit-identical
///                  refreshes do not fire)
///   on_touch       a geometry change the columns cannot express
/// clear() fires on_remove for every live link. Listeners must not mutate
/// the store from inside a callback.
class LinkStoreListener {
 public:
  virtual ~LinkStoreListener() = default;
  virtual void on_add(LinkId id) = 0;
  virtual void on_remove(LinkId id) = 0;
  virtual void on_flip(LinkId id) = 0;
  virtual void on_set_length(LinkId id) = 0;
  virtual void on_touch(LinkId id) = 0;
};

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
/// Every per-field column carries a generation counter (endpoint_gen for the
/// sender/receiver pair, length_gen for the geometry), drawn from a single
/// monotonically increasing clock shared by the whole store. Consumers
/// record the clock after a read and later compare per-link generations
/// against it to detect staleness per link — the basis of O(dirty) epoch
/// work instead of assuming a fresh world.
///
/// Endpoints are stable NODE ids (e.g. mst::IncrementalMst ids), not dense
/// point indices; the store never touches positions. A canonical-pair index
/// (undirected {a, b} -> live id) lets tree maintainers diff edge sets.
class LinkStore {
 public:
  LinkStore() = default;

  /// Allocates a new live link. The pair {sender, receiver} must not
  /// collide with a live link (std::invalid_argument).
  LinkId add(std::int32_t sender, std::int32_t receiver, double length);

  /// Kills a live link. Throws std::invalid_argument on dead/unknown ids.
  void remove(LinkId id);

  /// In-place orientation flip: swaps sender and receiver, bumps the
  /// endpoint generation. The pair index is unaffected (pairs are
  /// undirected).
  void flip(LinkId id);

  /// Refreshes the length column. A no-op (no generation bump) when the
  /// value is unchanged bit-for-bit, so unconditional refresh sweeps do not
  /// dirty clean links.
  void set_length(LinkId id, double length);

  /// Marks a link changed without altering any column — for geometry
  /// context changes the columns cannot express (an endpoint moved but the
  /// cached length happens to be identical: SINR distances to other links
  /// still shifted).
  void touch(LinkId id);

  /// Drops every link and resets the pair index. Ids are still never
  /// reused; the generation clock keeps advancing.
  void clear();

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

  /// Generation of the last sender/receiver change (add or flip).
  [[nodiscard]] std::uint64_t endpoint_gen(LinkId id) const {
    return endpoint_gen_[checked(id)];
  }
  /// Generation of the last geometry change (add, a value-changing
  /// set_length, or touch — a moved endpoint is a geometry change even
  /// when the cached length survives).
  [[nodiscard]] std::uint64_t length_gen(LinkId id) const {
    return length_gen_[checked(id)];
  }
  /// max(endpoint_gen, length_gen): the link changed after `mark` iff
  /// generation(id) > mark.
  [[nodiscard]] std::uint64_t generation(LinkId id) const {
    const auto slot = checked(id);
    return endpoint_gen_[slot] > length_gen_[slot] ? endpoint_gen_[slot]
                                                   : length_gen_[slot];
  }

  /// The store-wide clock: strictly increases on every mutating call.
  /// Record it after building a view; any link whose generation() exceeds
  /// the recorded value changed since.
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }

  /// Attaches (or, with nullptr, detaches) the single mutation listener.
  /// The listener must outlive the store or be detached first.
  void set_listener(LinkStoreListener* listener) noexcept {
    listener_ = listener;
  }
  [[nodiscard]] LinkStoreListener* listener() const noexcept {
    return listener_;
  }

  /// The live id of the undirected pair {a, b}, or kNoLink.
  [[nodiscard]] LinkId find_pair(std::int32_t a, std::int32_t b) const;

  /// The canonical key of the undirected pair {a, b} — the scheme the pair
  /// index uses, exposed so tree maintainers deduplicate edge diffs with
  /// the exact same identity.
  [[nodiscard]] static std::uint64_t pair_key(std::int32_t a,
                                              std::int32_t b) noexcept;

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

  std::vector<std::int32_t> sender_;
  std::vector<std::int32_t> receiver_;
  std::vector<double> length_;
  std::vector<std::uint64_t> endpoint_gen_;
  std::vector<std::uint64_t> length_gen_;
  std::vector<bool> alive_;
  std::unordered_map<std::uint64_t, LinkId> pair_index_;
  std::size_t num_live_ = 0;
  std::uint64_t clock_ = 0;
  LinkStoreListener* listener_ = nullptr;
};

}  // namespace wagg::geom

#endif  // WAGG_GEOM_LINK_STORE_H
