#include "distributed/distributed.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "conflict/conflict_index.h"
#include "util/rng.h"

namespace wagg::distributed {

DistributedResult distributed_schedule(const geom::LinkView& links,
                                       const DistributedConfig& config) {
  config.sinr.validate();
  if (links.empty()) {
    throw std::invalid_argument("distributed_schedule: empty link set");
  }
  const conflict::Graph graph =
      conflict::build_conflict_graph_indexed(links, config.spec);
  const double lmin = links.min_length();
  const double n_nodes = static_cast<double>(links.num_points());
  const double log_n = std::max(1.0, std::log2(n_nodes));

  // Length classes, processed longest first (std::map iterated in reverse).
  std::map<int, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const int cls = static_cast<int>(
        std::floor(std::log2(links.length(i) / lmin)));
    classes[cls].push_back(i);
  }

  DistributedResult result;
  result.coloring.color_of.assign(links.size(), -1);
  util::Rng rng(config.seed);

  for (auto it = classes.rbegin(); it != classes.rend(); ++it) {
    const auto& members = it->second;
    PhaseStats stats;
    stats.length_class = it->first;
    stats.links = members.size();

    std::vector<std::size_t> uncolored = members;
    std::vector<int> candidate(links.size(), -1);
    std::vector<double> priority(links.size(), 0.0);
    std::vector<bool> used;
    int phase_max_color = -1;
    while (!uncolored.empty()) {
      if (stats.coloring_rounds >=
          static_cast<std::size_t>(config.max_rounds_per_phase)) {
        throw std::invalid_argument(
            "distributed_schedule: phase failed to stabilize");
      }
      ++stats.coloring_rounds;
      // Proposal step: smallest color unused by colored neighbours.
      for (std::size_t link : uncolored) {
        used.assign(links.size() + 1, false);
        for (const auto w : graph.neighbors(link)) {
          const int c = result.coloring.color_of[static_cast<std::size_t>(w)];
          if (c >= 0 && static_cast<std::size_t>(c) < used.size()) {
            used[static_cast<std::size_t>(c)] = true;
          }
        }
        int c = 0;
        while (used[static_cast<std::size_t>(c)]) ++c;
        candidate[link] = c;
        priority[link] = rng.uniform();
      }
      // Commit step: win against uncolored conflicting neighbours proposing
      // the same color (ties broken by index for determinism). Decisions are
      // taken against the start-of-round state and applied only afterwards —
      // committing eagerly would hide just-colored neighbours from later
      // links in the same round and produce conflicting commits.
      std::vector<std::size_t> winners, still_uncolored;
      std::vector<bool> uncolored_now(links.size(), false);
      for (std::size_t link : uncolored) uncolored_now[link] = true;
      for (std::size_t link : uncolored) {
        bool wins = true;
        for (const auto w_raw : graph.neighbors(link)) {
          const auto w = static_cast<std::size_t>(w_raw);
          if (!uncolored_now[w]) continue;
          if (candidate[w] < 0 || candidate[w] != candidate[link]) continue;
          if (priority[w] > priority[link] ||
              (priority[w] == priority[link] && w < link)) {
            wins = false;
            break;
          }
        }
        if (wins) {
          winners.push_back(link);
        } else {
          still_uncolored.push_back(link);
        }
      }
      for (std::size_t link : winners) {
        result.coloring.color_of[link] = candidate[link];
        phase_max_color = std::max(phase_max_color, candidate[link]);
      }
      uncolored = std::move(still_uncolored);
    }
    // Distinct colors committed by this class.
    std::vector<int> colors;
    for (std::size_t link : members) {
      colors.push_back(result.coloring.color_of[link]);
    }
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    stats.colors_used = static_cast<int>(colors.size());
    // Local broadcast cost model: O(colors + log^2 n) rounds per phase.
    stats.broadcast_rounds = static_cast<std::size_t>(
        config.broadcast_constant *
        (static_cast<double>(stats.colors_used) + log_n * log_n));
    result.coloring_rounds += stats.coloring_rounds;
    result.broadcast_rounds += stats.broadcast_rounds;
    result.phases.push_back(stats);
  }

  result.num_phases = static_cast<int>(result.phases.size());
  result.total_rounds = result.coloring_rounds + result.broadcast_rounds;
  int max_color = -1;
  for (int c : result.coloring.color_of) max_color = std::max(max_color, c);
  result.coloring.num_colors = max_color + 1;
  result.proper = coloring::is_proper(graph, result.coloring);
  return result;
}

}  // namespace wagg::distributed
