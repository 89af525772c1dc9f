#include "sim/faults.hpp"

#include "topology/placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ct::sim {

FaultSet::FaultSet(topo::Rank num_procs) { reset(num_procs); }

void FaultSet::reset(topo::Rank num_procs) {
  if (num_procs <= 0) throw std::invalid_argument("fault set needs at least one process");
  // Every dirty slot is < dies_at_.size() by construction, so clearing before
  // the resize touches only valid entries; growth fills the new tail with
  // kTimeNever, shrink-then-regrow re-fills it the same way.
  for (topo::Rank r : dirty_) dies_at_[static_cast<std::size_t>(r)] = kTimeNever;
  dirty_.clear();
  dies_at_.resize(static_cast<std::size_t>(num_procs), kTimeNever);
  failed_count_ = 0;
}

void FaultSet::mark_dead(topo::Rank r, Time t) noexcept {
  Time& dies_at = dies_at_[static_cast<std::size_t>(r)];
  if (dies_at == kTimeNever) {
    dirty_.push_back(r);
    ++failed_count_;
  }
  // A rank dies once: a later kill cannot revive one that already failed.
  dies_at = std::min(dies_at, t);
}

FaultSet FaultSet::none(topo::Rank num_procs) { return FaultSet(num_procs); }

void FaultSet::sample_none_into(FaultSet& out, topo::Rank num_procs) {
  out.reset(num_procs);
}

void FaultSet::sample_count_into(FaultSet& out, topo::Rank num_procs, topo::Rank count,
                                 support::Xoshiro256ss& rng) {
  if (count < 0 || count >= num_procs) {
    throw std::invalid_argument("failure count must be in [0, P-1]");
  }
  out.reset(num_procs);
  // Floyd's algorithm over ranks 1..P-1: uniform distinct sample without
  // materialising the population. The draw sequence must stay exactly as it
  // is — replication results are pinned to it (see determinism_test).
  const topo::Rank population = num_procs - 1;
  for (topo::Rank j = population - count; j < population; ++j) {
    // Candidate in [1, j+1]; j is 0-based within the population of size P-1.
    const auto candidate =
        static_cast<topo::Rank>(1 + rng.below(static_cast<std::uint64_t>(j) + 1));
    if (out.dies_at_[static_cast<std::size_t>(candidate)] == kTimeNever) {
      out.mark_dead(candidate, 0);
    } else {
      out.mark_dead(j + 1, 0);
    }
  }
}

void FaultSet::sample_fraction_into(FaultSet& out, topo::Rank num_procs, double fraction,
                                    support::Xoshiro256ss& rng) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("failure fraction must be in [0, 1]");
  }
  const auto count = static_cast<topo::Rank>(
      std::llround(fraction * static_cast<double>(num_procs - 1)));
  sample_count_into(out, num_procs, count, rng);
}

FaultSet FaultSet::random_count(topo::Rank num_procs, topo::Rank count,
                                support::Xoshiro256ss& rng) {
  FaultSet faults;
  sample_count_into(faults, num_procs, count, rng);
  return faults;
}

FaultSet FaultSet::random_fraction(topo::Rank num_procs, double fraction,
                                   support::Xoshiro256ss& rng) {
  FaultSet faults;
  sample_fraction_into(faults, num_procs, fraction, rng);
  return faults;
}

FaultSet FaultSet::from_list(topo::Rank num_procs, const std::vector<topo::Rank>& failed) {
  FaultSet faults(num_procs);
  for (topo::Rank r : failed) {
    if (r <= 0 || r >= num_procs) {
      throw std::invalid_argument("failed rank out of range (root cannot fail)");
    }
    faults.mark_dead(r, 0);
  }
  return faults;
}

FaultSet FaultSet::correlated_nodes(const std::vector<topo::Rank>& rank_of_pid,
                                    topo::Rank node_size, topo::Rank failed_nodes,
                                    support::Xoshiro256ss& rng) {
  const auto num_procs = static_cast<topo::Rank>(rank_of_pid.size());
  if (node_size <= 0) throw std::invalid_argument("node size must be positive");
  const topo::Rank num_nodes = (num_procs + node_size - 1) / node_size;
  if (failed_nodes < 0 || failed_nodes >= num_nodes) {
    throw std::invalid_argument("failed node count must be in [0, num_nodes - 1]");
  }
  // Distinct victim nodes among 1..num_nodes-1 (node 0 hosts the root's pid).
  std::vector<char> is_victim(static_cast<std::size_t>(num_nodes), 0);
  topo::Rank chosen = 0;
  while (chosen < failed_nodes) {
    const auto node = static_cast<std::size_t>(
        1 + rng.below(static_cast<std::uint64_t>(num_nodes) - 1));
    if (!is_victim[node]) {
      is_victim[node] = 1;
      ++chosen;
    }
  }
  std::vector<topo::Rank> failed;
  for (topo::Rank node = 1; node < num_nodes; ++node) {
    if (!is_victim[static_cast<std::size_t>(node)]) continue;
    for (topo::Rank r : topo::node_ranks(rank_of_pid, node, node_size)) {
      failed.push_back(r);
    }
  }
  return from_list(num_procs, failed);
}

void FaultSet::kill_at(topo::Rank r, Time t) {
  if (r <= 0 || r >= num_procs()) {
    throw std::invalid_argument("failed rank out of range (root cannot fail)");
  }
  if (t < 0) throw std::invalid_argument("death time must be >= 0");
  mark_dead(r, t);
}

std::vector<topo::Rank> FaultSet::initially_failed() const {
  std::vector<topo::Rank> result;
  for (topo::Rank r = 0; r < num_procs(); ++r) {
    if (failed_from_start(r)) result.push_back(r);
  }
  return result;
}

}  // namespace ct::sim
