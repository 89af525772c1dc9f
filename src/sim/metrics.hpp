#pragma once
// Per-run metrics (§4: "We look at the two most important performance
// metrics: latency and network load").
//
//  * coloring latency  — root's first send until the last live process is
//                        colored (kTimeNever if some live process stays
//                        uncolored, which opportunistic correction permits).
//  * quiescence latency — root's first send until all broadcast-related
//                        activity is over (last send/receive completion,
//                        including messages that die with their recipient).
//  * messages          — total sends started (network load).
//  * dissemination gaps — gap statistics of the coloring snapshot taken when
//                        correction starts (drives Fig. 10 / Table 1).

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "topology/gaps.hpp"
#include "topology/tree.hpp"

namespace ct::sim {

struct RunResult {
  topo::Rank num_procs = 0;
  topo::Rank failed = 0;

  Time coloring_latency = kTimeNever;
  Time quiescence_latency = 0;
  std::int64_t total_messages = 0;
  /// Simulator events dispatched for this run (engine throughput metric;
  /// a message costs several events plus timers — see micro_simulator).
  std::int64_t events_processed = 0;

  /// Live processes still uncolored at quiescence. Nonzero only for
  /// correction schemes without full guarantees (plain opportunistic).
  topo::Rank uncolored_live = 0;

  /// Coloring-state snapshot taken at correction start (empty if the
  /// protocol never signalled a correction phase).
  bool has_dissemination_snapshot = false;
  topo::GapStats dissemination_gaps;

  /// Time correction started (kTimeNever if never signalled).
  Time correction_start = kTimeNever;

  /// Correction duration: quiescence - correction_start.
  Time correction_time() const noexcept {
    return correction_start == kTimeNever ? 0 : quiescence_latency - correction_start;
  }

  double messages_per_process() const noexcept {
    return num_procs ? static_cast<double>(total_messages) / static_cast<double>(num_procs)
                     : 0.0;
  }

  bool fully_colored() const noexcept { return uncolored_live == 0; }

  /// Per-rank coloring times (kTimeNever = never colored). Populated only
  /// when RunOptions::keep_per_rank_detail is set.
  std::vector<Time> colored_at;
  /// Per-rank send counts (same opt-in).
  std::vector<std::int32_t> sends_per_rank;
  /// Final data-plane word per rank (same opt-in) — lets tests assert that
  /// every live process actually received the collective's payload.
  std::vector<std::int64_t> rank_data;
};

}  // namespace ct::sim
