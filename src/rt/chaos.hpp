#pragma once
// Deterministic fault-injection plan for the threaded runtime (DESIGN.md
// §4d). The paper's experiments pre-fail ranks before the broadcast starts;
// a ChaosPlan extends the runtime to the simulator's stronger model
// (sim::FaultSet::dies_at): ranks crash *mid-epoch*, and individual sends
// are dropped, delayed, or duplicated at the Envelope delivery boundary —
// so unchanged sim::Protocol state machines see exactly the paper's
// "messages vanish without feedback" semantics, now at arbitrary times.
//
// Every decision is a pure hash of (seed, epoch, rank[, send index]) — the
// plan keeps no mutable state, so every executor, any worker interleaving,
// and re-runs of the same seed consult identical schedules. What *is*
// timing-dependent is which scheduled crashes take effect: a rank slated to
// crash at t = 1.5 ms never does if the epoch completes in 0.9 ms. The
// schedule is bit-reproducible; the realized fault set is reported per
// epoch in EpochResult::crashed_ranks.

#include <cstdint>
#include <utility>
#include <vector>

#include "topology/tree.hpp"

namespace ct::rt {

struct ChaosOptions {
  std::uint64_t seed = 0;
  /// Probability that a given rank crashes during a given epoch. Rank 0
  /// (the collective's root) is exempt, as in the paper's experiments.
  double crash_fraction = 0.0;
  /// Crash times are uniform in [1, crash_window_ns] from epoch start —
  /// sized to land inside dissemination/correction, not after quiescence.
  std::int64_t crash_window_ns = 2'000'000;
  /// Per-send perturbations, evaluated in this order (mutually exclusive
  /// per message): drop, else duplicate, else delay.
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  /// Base delay plus uniform jitter in [0, delay_jitter_ns].
  std::int64_t delay_ns = 200'000;
  std::int64_t delay_jitter_ns = 0;
  /// Probability that a crashed rank is scheduled to revive (repair mode,
  /// DESIGN.md §4i). Drawn once per crash from the same pure-hash stream
  /// family as the crash schedule, keyed by the epoch the rank crashed in.
  double revive_fraction = 0.0;
  /// Wall-clock delay from the crash's detection (epoch seal) until the
  /// rank is eligible to rejoin, plus uniform jitter in [0,
  /// revive_jitter_ns]. 0 = eligible at the very next epoch boundary.
  std::int64_t revive_after_ns = 0;
  std::int64_t revive_jitter_ns = 0;
};

class ChaosPlan {
 public:
  ChaosPlan() = default;
  explicit ChaosPlan(ChaosOptions options) : options_(options) {}

  const ChaosOptions& options() const noexcept { return options_; }

  /// Explicit override: rank crashes at `ns` from epoch start, every epoch.
  /// Used by the sim/rt parity tests to mirror FaultSet::dies_at exactly.
  void kill_at_ns(topo::Rank rank, std::int64_t ns) {
    kill_ns_.emplace_back(rank, ns);
  }

  /// Explicit override: rank crashes after completing `sends` sends in an
  /// epoch (the step-count analogue of dies_at). -1-free: sends >= 0.
  void kill_after_sends(topo::Rank rank, std::int64_t sends) {
    kill_sends_.emplace_back(rank, sends);
  }

  /// Explicit override: every crash of `rank` revives after `ns` wall-clock
  /// nanoseconds (the revive analogue of kill_at_ns, for deterministic
  /// recovery tests). ns < 0 pins the rank dead forever.
  void revive_after(topo::Rank rank, std::int64_t ns) {
    revive_ns_.emplace_back(rank, ns);
  }

  bool crashes_enabled() const noexcept {
    return options_.crash_fraction > 0.0 || !kill_ns_.empty() || !kill_sends_.empty();
  }
  bool revives_enabled() const noexcept {
    return options_.revive_fraction > 0.0 || !revive_ns_.empty();
  }
  bool links_enabled() const noexcept {
    return options_.drop_prob > 0.0 || options_.delay_prob > 0.0 ||
           options_.duplicate_prob > 0.0;
  }
  bool enabled() const noexcept { return crashes_enabled() || links_enabled(); }

  /// Scheduled crash time for (epoch, rank), ns from epoch start; -1 if the
  /// rank is not scheduled to crash this epoch. Explicit kill_at_ns
  /// overrides win over the sampled schedule.
  std::int64_t crash_ns(std::int64_t epoch, topo::Rank rank) const;

  /// Send budget before a step-count crash; -1 = unlimited.
  std::int64_t crash_send_budget(topo::Rank rank) const;

  /// Scheduled revive delay for a rank that crashed in `crash_epoch`, ns of
  /// wall clock from the crash's detection; -1 = the rank stays dead. Pure
  /// hash of (seed, crash_epoch, rank) under its own domain tag, so the
  /// schedule is bit-reproducible across executors and worker counts just
  /// like crash_ns. Explicit revive_after overrides win. Rank 0 never
  /// crashes, so its schedule is vacuously -1.
  std::int64_t revive_after_ns(std::int64_t crash_epoch, topo::Rank rank) const;

  /// Fate of one send. `send_index` is the sender's 1-based per-epoch send
  /// counter. At most one of drop/duplicate/delay applies.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    std::int64_t delay_ns = 0;  ///< 0 = deliver immediately
  };
  Verdict classify(std::int64_t epoch, topo::Rank from, std::int64_t send_index) const;

 private:
  ChaosOptions options_;
  std::vector<std::pair<topo::Rank, std::int64_t>> kill_ns_;
  std::vector<std::pair<topo::Rank, std::int64_t>> kill_sends_;
  std::vector<std::pair<topo::Rank, std::int64_t>> revive_ns_;
};

}  // namespace ct::rt
