#pragma once
// Fail-stop fault injection (§2.1). A failed process neither sends nor
// processes messages; messages addressed to it vanish without feedback to
// the sender. For the paper's experiments failures are in place before the
// broadcast starts ("a process either sends all messages required by the
// protocol or none at all"); as an extension we also support processes
// dying at a given simulated time, which the failure-proof correction tests
// use to inject failures *during* the broadcast.

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "support/rng.hpp"
#include "topology/tree.hpp"

namespace ct::sim {

/// Set of scheduled process deaths over a fixed rank population.
///
/// Two usage modes share one sampling implementation (and therefore consume
/// the identical RNG call sequence, which replication determinism depends
/// on):
///  - the static factories (`none`, `random_count`, ...) return a fresh
///    value — convenient for one-off runs and tests;
///  - the `sample_*_into` variants re-sample into a caller-held FaultSet,
///    resetting only the slots dirtied by the previous sample (an O(faults)
///    touch, mirroring `sim::Workspace` reuse) instead of reallocating the
///    O(P) `dies_at_` buffer every replication. `exp::ReplicaPlan` keeps one
///    such FaultSet per pool worker.
class FaultSet {
 public:
  /// Empty set over zero ranks; sample into it before use.
  FaultSet() = default;

  /// All processes alive.
  static FaultSet none(topo::Rank num_procs);
  /// Exactly `count` distinct random failures among ranks 1..P-1 (the root
  /// initiates the broadcast and is assumed alive, §2.1).
  static FaultSet random_count(topo::Rank num_procs, topo::Rank count,
                               support::Xoshiro256ss& rng);
  /// Failure fraction of the non-root population, rounded to nearest.
  static FaultSet random_fraction(topo::Rank num_procs, double fraction,
                                  support::Xoshiro256ss& rng);
  /// Explicit list of failed ranks (must not contain the root).
  static FaultSet from_list(topo::Rank num_procs, const std::vector<topo::Rank>& failed);

  /// Correlated failures (§2.1): `failed_nodes` distinct physical nodes
  /// crash, killing all their processes. `rank_of_pid` is a placement from
  /// topo::make_placement; the node hosting pid 0 (the root) never fails.
  static FaultSet correlated_nodes(const std::vector<topo::Rank>& rank_of_pid,
                                   topo::Rank node_size, topo::Rank failed_nodes,
                                   support::Xoshiro256ss& rng);

  // Reusable-buffer variants: bit-identical samples to the factories above,
  // but `out`'s storage is recycled across calls.
  static void sample_none_into(FaultSet& out, topo::Rank num_procs);
  static void sample_count_into(FaultSet& out, topo::Rank num_procs, topo::Rank count,
                                support::Xoshiro256ss& rng);
  static void sample_fraction_into(FaultSet& out, topo::Rank num_procs, double fraction,
                                   support::Xoshiro256ss& rng);

  topo::Rank num_procs() const noexcept { return static_cast<topo::Rank>(dies_at_.size()); }
  topo::Rank failed_count() const noexcept { return failed_count_; }

  /// True if rank r processes events occurring at time t.
  bool alive_at(topo::Rank r, Time t) const noexcept {
    return dies_at_[static_cast<std::size_t>(r)] > t;
  }
  /// Scheduled death time of rank r (kTimeNever if it never fails).
  Time dies_at(topo::Rank r) const noexcept {
    return dies_at_[static_cast<std::size_t>(r)];
  }
  /// True if the rank never fails during this run.
  bool always_alive(topo::Rank r) const noexcept {
    return dies_at_[static_cast<std::size_t>(r)] == kTimeNever;
  }
  /// True if the rank is dead from the start (the paper's fault model).
  bool failed_from_start(topo::Rank r) const noexcept {
    return dies_at_[static_cast<std::size_t>(r)] <= 0;
  }

  /// Extension: schedule rank r to die at time t (t = 0 → dead from start).
  /// A rank already scheduled to die keeps the earlier of the two times.
  void kill_at(topo::Rank r, Time t);

  /// Ranks that are dead from the start, ascending.
  std::vector<topo::Rank> initially_failed() const;

 private:
  explicit FaultSet(topo::Rank num_procs);

  /// Clears previously dirtied slots and (re)sizes the buffer: O(previous
  /// faults), plus a one-time O(ΔP) fill when the population grows.
  void reset(topo::Rank num_procs);
  void mark_dead(topo::Rank r, Time t) noexcept;

  std::vector<Time> dies_at_;
  std::vector<topo::Rank> dirty_;  // slots where dies_at_ != kTimeNever
  topo::Rank failed_count_ = 0;
};

}  // namespace ct::sim
