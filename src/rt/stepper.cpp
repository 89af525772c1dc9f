#include "rt/stepper.hpp"

#include "rt/harness.hpp"
#include "topology/gaps.hpp"

namespace ct::rt {

using topo::Rank;

void summarize_ranks(EpochResult& result) {
  for (std::size_t ri = 0; ri < result.rank_state.size(); ++ri) {
    const auto r = static_cast<Rank>(ri);
    if (result.rank_state[ri] == RankEnd::kCrashed) {
      result.crashed_ranks.push_back(r);
      ++result.crashed_mid_epoch;
    } else if (result.rank_state[ri] == RankEnd::kUncolored) {
      result.uncolored_survivors.push_back(r);
      ++result.uncolored_live;
    }
  }
  if (!result.degraded()) return;
  // Survivor coloring on the correction ring: crashed and failed ranks are
  // holes, exactly as the paper's gap analysis treats dead ranks.
  std::vector<char> survivor_colored(result.rank_state.size(), 0);
  bool any_colored = false;
  for (std::size_t ri = 0; ri < survivor_colored.size(); ++ri) {
    if (result.rank_state[ri] == RankEnd::kColored) {
      survivor_colored[ri] = 1;
      any_colored = true;
    }
  }
  if (any_colored) result.coloring_gaps = topo::analyze_gaps(survivor_colored);
}

void fold_epoch(HarnessResult& result, const EpochResult& epoch, std::int64_t latency_ns,
                Rank num_procs) {
  if (result.iterations == 0) result.first = epoch;
  ++result.iterations;
  result.total_messages += epoch.total_messages;
  result.ranks_crashed += epoch.crashed_mid_epoch;
  result.messages_dropped += epoch.messages_dropped;
  result.messages_delayed += epoch.messages_delayed;
  result.messages_duplicated += epoch.messages_duplicated;
  if (epoch.degraded()) ++result.epochs_degraded;
  if (epoch.timed_out) {
    ++result.timeouts;
    return;
  }
  if (epoch.uncolored_live > 0) ++result.incomplete;
  result.latency_us.add(static_cast<double>(latency_ns) / 1000.0);
  result.messages_per_process.add(static_cast<double>(epoch.total_messages) /
                                  static_cast<double>(num_procs));
}

}  // namespace ct::rt
