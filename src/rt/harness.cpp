#include "rt/harness.hpp"

#include "rt/stepper.hpp"

namespace ct::rt {

namespace {

/// measure_recovery: epochs the sender-side replay log retains. A rejoin
/// whose outage fits the log replays the missed epochs; a longer outage
/// falls back to a fresh-epoch state transfer (DESIGN.md §4i).
constexpr std::size_t kReplayLogCapacity = 64;

}  // namespace

HarnessResult measure_broadcast(Engine& engine, const ProtocolFactory& factory,
                                const HarnessOptions& options) {
  for (std::int64_t i = 0; i < options.warmup; ++i) {
    auto protocol = factory();
    engine.run_epoch(*protocol, options.epoch_timeout);
  }

  HarnessResult result;
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < options.iterations; ++i) {
    auto protocol = factory();
    const EpochResult epoch = engine.run_epoch(*protocol, options.epoch_timeout);
    fold_epoch(result, epoch, epoch.completion_ns, engine.num_procs());
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

HarnessResult measure_recovery(Engine& engine,
                               const MembershipProtocolFactory& factory,
                               const HarnessOptions& options) {
  const ChaosPlan& plan = engine.chaos();
  ReplayLog log(kReplayLogCapacity);
  // A rank that crashed and has a revival scheduled. since_epoch is the
  // global epoch index it crashed in (the first epoch it needs replayed);
  // revive_at_ns < 0 means the chaos plan pinned it dead for good.
  struct Down {
    topo::Rank rank;
    std::int64_t since_epoch;
    std::int64_t revive_at_ns;
  };
  std::vector<Down> down;
  std::vector<topo::Rank> pending_dead;  // crashes awaiting the next boundary

  HarnessResult result;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  const auto run_start = Clock::now();
  const auto wall_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                run_start)
        .count();
  };

  const std::int64_t total_epochs = options.warmup + options.iterations;
  Clock::time_point measure_start{};
  for (std::int64_t idx = 0; idx < total_epochs; ++idx) {
    const bool measured = idx >= options.warmup;
    if (measured && idx == options.warmup) measure_start = Clock::now();

    // 1. Collect revivals that have come due on the wall clock.
    std::vector<topo::Rank> revived;
    std::vector<std::int64_t> revived_since;
    {
      const std::int64_t now_ns = wall_ns();
      std::size_t keep = 0;
      for (const Down& d : down) {
        if (d.revive_at_ns >= 0 && now_ns >= d.revive_at_ns) {
          revived.push_back(d.rank);
          revived_since.push_back(d.since_epoch);
        } else {
          down[keep++] = d;
        }
      }
      down.resize(keep);
    }

    // 2. One repair per boundary covers both directions of churn.
    if (!pending_dead.empty() || !revived.empty()) {
      if (engine.repair_membership(pending_dead, revived)) ++result.repairs;
      pending_dead.clear();
      for (std::size_t i = 0; i < revived.size(); ++i) {
        ++result.rejoins;
        // Replay when the log still covers the epoch the rank crashed in;
        // otherwise the outage outran the bounded log and the rank is
        // re-seeded by a fresh-epoch state transfer.
        if (log.covers(revived_since[i])) {
          result.replayed_epochs += idx - revived_since[i];
        } else {
          ++result.state_transfers;
        }
      }
      // A rejoin perturbs the epoch it is admitted into just like a crash
      // does, so it resets the convergence clock.
      if (!revived.empty()) last_fault_idx = idx;
    }

    // 3. Size the protocol to the live membership; remap dense<->global when
    //    the view is compacted.
    const MembershipView& view = engine.membership();
    std::unique_ptr<sim::Protocol> protocol = factory(view);
    std::unique_ptr<sim::Protocol> wrapped;
    sim::Protocol* run = protocol.get();
    if (!view.is_identity()) {
      wrapped = std::make_unique<RemappedProtocol>(std::move(protocol), view);
      run = wrapped.get();
    }

    EpochResult epoch = engine.run_epoch(*run, options.epoch_timeout);

    if (measured) fold_epoch(result, epoch, epoch.completion_ns, engine.num_procs());

    // 4. Record this boundary's deaths and draw their revival schedule from
    //    the chaos plan, keyed by the epoch index the crash was detected in.
    for (topo::Rank r : epoch.crashed_ranks) {
      pending_dead.push_back(r);
      const std::int64_t delay = plan.revive_after_ns(idx, r);
      down.push_back(Down{r, idx, delay >= 0 ? wall_ns() + delay : -1});
    }

    // 5. Convergence bookkeeping over global indices (warmup included: the
    //    fault stream doesn't pause for the measurement window).
    if (!epoch.crashed_ranks.empty()) last_fault_idx = idx;
    if (epoch.degraded()) last_degraded_idx = idx;

    // 6. The sender-side log retains one entry per epoch; quiescence (no
    //    rank down, no death pending) truncates it wholesale.
    log.append(idx, idx);
    if (down.empty() && pending_dead.empty()) log.clear();
  }

  result.wall_seconds =
      result.iterations > 0
          ? std::chrono::duration<double>(Clock::now() - measure_start).count()
          : 0.0;
  result.epochs_to_converge =
      last_degraded_idx > last_fault_idx ? last_degraded_idx - last_fault_idx : 0;
  return result;
}

StreamHarnessResult measure_stream(Engine& engine, const ProtocolFactory& factory,
                                   const StreamOptions& options) {
  StreamHarnessResult result;
  result.raw = engine.run_stream(factory, options);
  result.wall_seconds = result.raw.wall_seconds;
  result.repairs = result.raw.repairs;
  const auto live = static_cast<std::int64_t>(engine.live_count());
  std::int64_t idx = 0;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  for (const StreamEpoch& epoch : result.raw.epochs) {
    ++result.epochs;
    result.total_messages += epoch.messages;
    result.ranks_crashed += epoch.crashed;
    result.rejoins += epoch.rejoined;
    // Ranks already dead at admission never receive the payload, so they
    // don't count toward deliveries (repair-mode streams; zero otherwise).
    result.deliveries += live - epoch.dead_at_start - epoch.crashed - epoch.uncolored;
    if (epoch.crashed > 0 || epoch.rejoined > 0) last_fault_idx = idx;
    if (epoch.timed_out || epoch.uncolored > 0) last_degraded_idx = idx;
    ++idx;
    if (epoch.timed_out) {
      ++result.timeouts;
      continue;
    }
    if (epoch.uncolored > 0) ++result.incomplete;
    result.sojourn_us.add(static_cast<double>(epoch.sojourn_ns()) / 1000.0);
    result.service_us.add(static_cast<double>(epoch.service_ns()) / 1000.0);
  }
  // Stream rejoins always re-seed by fresh-epoch state transfer — there is
  // no replay log across overlapping in-flight epochs (DESIGN.md §4i).
  result.state_transfers = result.rejoins;
  result.epochs_to_converge =
      last_degraded_idx > last_fault_idx ? last_degraded_idx - last_fault_idx : 0;
  return result;
}

}  // namespace ct::rt
