#include "geom/link_store.h"

#include <stdexcept>
#include <string>

namespace wagg::geom {

std::size_t LinkStore::checked(LinkId id) const {
  if (!alive(id)) {
    throw std::invalid_argument("LinkStore: dead or unknown link id " +
                                std::to_string(id));
  }
  return static_cast<std::size_t>(id);
}

LinkId LinkStore::add(std::int32_t sender, std::int32_t receiver,
                      double length) {
  if (sender == receiver) {
    throw std::invalid_argument("LinkStore: self-loop link");
  }
  if (!(length > 0.0)) {
    throw std::invalid_argument("LinkStore: length must be positive");
  }
  const LinkId id = static_cast<LinkId>(alive_.size());
  sender_.push_back(sender);
  receiver_.push_back(receiver);
  length_.push_back(length);
  alive_.push_back(true);
  change_.push_back(0);
  ++num_live_;
  log_change(static_cast<std::size_t>(id), kGeometry | kOrientation);
  return id;
}

void LinkStore::remove(LinkId id) {
  const auto slot = checked(id);
  alive_[slot] = false;
  --num_live_;
  log_change(slot, kGeometry);
}

void LinkStore::flip(LinkId id) {
  const auto slot = checked(id);
  std::swap(sender_[slot], receiver_[slot]);
  log_change(slot, kOrientation);
}

void LinkStore::set_length(LinkId id, double length) {
  const auto slot = checked(id);
  if (!(length > 0.0)) {
    throw std::invalid_argument("LinkStore: length must be positive");
  }
  if (length_[slot] == length) return;  // clean sweep must not dirty links
  length_[slot] = length;
  log_change(slot, kGeometry);
}

void LinkStore::touch(LinkId id) { log_change(checked(id), kGeometry); }

void LinkStore::log_change(std::size_t slot, std::uint8_t flags) {
  if (change_[slot] == 0) changed_.push_back(static_cast<LinkId>(slot));
  change_[slot] |= flags;
}

void LinkStore::clear_changes() noexcept {
  for (const auto id : changed_) change_[static_cast<std::size_t>(id)] = 0;
  changed_.clear();
}

std::vector<LinkId> LinkStore::live_ids() const {
  std::vector<LinkId> ids;
  ids.reserve(num_live_);
  for (std::size_t slot = 0; slot < alive_.size(); ++slot) {
    if (alive_[slot]) ids.push_back(static_cast<LinkId>(slot));
  }
  return ids;
}

LinkView LinkStore::snapshot(Pointset points,
                             std::span<const std::int32_t> node_index) const {
  std::vector<Link> links;
  std::vector<double> lengths;
  std::vector<LinkId> ids;
  links.reserve(num_live_);
  lengths.reserve(num_live_);
  ids.reserve(num_live_);
  const auto dense = [&](std::int32_t node) {
    const auto n = static_cast<std::size_t>(node);
    if (node < 0 || n >= node_index.size() || node_index[n] < 0) {
      throw std::invalid_argument(
          "LinkStore::snapshot: live link references an unmapped node");
    }
    return node_index[n];
  };
  for (std::size_t slot = 0; slot < alive_.size(); ++slot) {
    if (!alive_[slot]) continue;
    links.push_back(Link{dense(sender_[slot]), dense(receiver_[slot])});
    lengths.push_back(length_[slot]);
    ids.push_back(static_cast<LinkId>(slot));
  }
  return LinkView(std::move(points), std::move(links), std::move(lengths),
                  std::move(ids));
}

}  // namespace wagg::geom
