#include "rt/harness.hpp"

#include "rt/stepper.hpp"

namespace ct::rt {

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
  HarnessResult result;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  const std::int64_t total_epochs = options.warmup + options.iterations;
  Clock::time_point measure_start{};
  for (std::int64_t idx = 0; idx < total_epochs; ++idx) {
    const bool measured = idx >= options.warmup;
    if (measured && idx == options.warmup) measure_start = Clock::now();

    // One boundary per epoch: the engine persisted the last epoch's crashes
    // as it retired; heal revives the due ranks and repairs once.
    const HealResult heal = engine.heal();
    if (heal.repaired) ++result.repairs;
    for (const std::int64_t outage : heal.outages) {
      ++result.rejoins;
      if (rejoin_replays(outage)) {
        result.replayed_epochs += outage;
      } else {
        ++result.state_transfers;
      }
    }
    // A rejoin perturbs the epoch it is admitted into just like a crash
    // does, so it resets the convergence clock.
    if (!heal.outages.empty()) last_fault_idx = idx;

    // Size the protocol to the live membership; remap dense<->global when
    // the view is compacted.
    const MembershipView& view = engine.membership();
    std::unique_ptr<sim::Protocol> protocol = factory(view);
    std::unique_ptr<sim::Protocol> wrapped;
    sim::Protocol* run = protocol.get();
    if (!view.is_identity()) {
      wrapped = std::make_unique<RemappedProtocol>(std::move(protocol), view);
      run = wrapped.get();
    }

    const EpochResult epoch = engine.run_epoch(*run, options.epoch_timeout);
    if (measured) fold_epoch(result, epoch, epoch.completion_ns, engine.num_procs());

    // Convergence bookkeeping over global indices (warmup included: the
    // fault stream doesn't pause for the measurement window).
    if (!epoch.crashed_ranks.empty()) last_fault_idx = idx;
    if (epoch.degraded()) last_degraded_idx = idx;
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
  std::int64_t idx = 0;
  std::int64_t last_fault_idx = -1;
  std::int64_t last_degraded_idx = -1;
  for (const StreamEpoch& epoch : result.raw.epochs) {
    ++result.epochs;
    result.total_messages += epoch.messages;
    result.ranks_crashed += epoch.crashed;
    result.rejoins += epoch.rejoined;
    result.deliveries += epoch.colored;
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
