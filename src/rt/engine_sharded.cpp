// Sharded M:N executor (DESIGN.md §4c, §4f, §4h), the in-process driver of
// the runtime's one rank stepper (stepper.hpp): N worker threads, one rank
// slice each, over the lock-free SPSC ring mesh (DESIGN.md §4j); window
// slots and their handshakes, the epoch barrier, stream admission and
// deadlines. A shard whose slice completes credits its slot's countdown
// once; the last credit (or an expired deadline) retires the slot.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "rt/stepper.hpp"
#include "rt/transport_mem.hpp"

namespace ct::rt {

using topo::Rank;

namespace {

constexpr std::chrono::microseconds kIdleWait{50};
/// Park slice of a shard whose whole slice failed at construction: it steps
/// nothing and receives nothing (failed destinations are dropped at the
/// source), and every slot transition kicks it — a launch so it seeds the
/// slot and credits its empty slice.
constexpr std::chrono::milliseconds kEmptySliceWait{5};

/// Ranks per shard: [0, P) is carved into contiguous slices of
/// ceil(P / workers) ranks.
std::size_t shard_chunk(Rank num_procs, const EngineOptions& options) {
  const auto p = static_cast<std::size_t>(num_procs);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::size_t workers =
      options.workers > 0 ? static_cast<std::size_t>(options.workers) : hw;
  // Oversubscription cap (see EngineOptions::workers): shards beyond this
  // only inflate the S² mesh and timeshare the same cores. Generous floor
  // of 16 so multi-worker tests behave identically on small CI hosts.
  workers = std::min(workers, std::max<std::size_t>(16, 8 * hw));
  workers = std::min(workers, p);
  return (p + workers - 1) / workers;
}

}  // namespace

class Engine::Sharded final : private Stepper::Driver {
 public:
  explicit Sharded(Engine& engine)
      : engine_(engine),
        repair_(engine.options_.repair),
        chunk_(shard_chunk(engine.num_procs_, engine.options_)),
        num_shards_((static_cast<std::size_t>(engine.num_procs_) + chunk_ - 1) / chunk_),
        transport_(num_shards_, engine.options_.mesh_capacity),
        stepper_(engine.num_procs_, engine.failed_, chunk_, 0, engine.num_procs_, transport_,
                 *this),
        epoch_barrier_(static_cast<std::ptrdiff_t>(num_shards_) + 1) {
    for (std::size_t s = 0; s < num_shards_; ++s) {
      shards_.emplace_back(s, chunk_, engine.failed_, num_shards_);
    }
    threads_.reserve(num_shards_);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      threads_.emplace_back([this, s] { worker_main(s); });
    }
  }

  ~Sharded() {
    shutdown_.store(true, std::memory_order_release);
    epoch_barrier_.arrive_and_wait();  // release workers into the shutdown check
    threads_.clear();                  // join
  }

  /// One-shot epoch: slot 0 of a one-slot window, bracketed by the epoch
  /// barrier. The coordinator stages every slice itself while the workers
  /// are parked, and sleeps on the barrier until the slot retires.
  EpochResult run_epoch(sim::Protocol& protocol, std::int64_t timeout_ns) {
    open_window(1, /*one_shot=*/true);
    Slot& slot = stepper_.slot(0);
    admit(slot, epoch_ + 1);
    for (Shard& shard : shards_) stage_slice(shard, 0, slot);
    launch(slot, protocol, timeout_ns);
    stepper_.start_clock();
    epoch_barrier_.arrive_and_wait();  // epoch start
    epoch_barrier_.arrive_and_wait();  // epoch end
    EpochResult result;
    result.timed_out = slot.timed_out;
    stepper_.collect(slot, 0, engine_.num_procs_, result);
    summarize_ranks(result);
    return result;
  }

  StreamResult run_stream(const ProtocolFactory& factory, const StreamOptions& options);

  std::size_t worker_threads() const noexcept { return threads_.size(); }
  /// The engine-wide tag of the last admitted epoch (0 before the first).
  std::int64_t last_epoch() const noexcept { return epoch_; }

  /// nullptr disables injection. The plan outlives all epochs run under it.
  void set_chaos(const ChaosPlan* plan) { stepper_.set_chaos(plan, /*link_verdicts=*/true); }

 private:
  using Shard = Stepper::Shard;
  using Slot = Stepper::Slot;

  // Window slot handshakes. A slot cycles through an atomic state machine;
  // every transition into worker-owned territory is a staged handshake so
  // the coordinator only ever touches a slot's rank state while no worker
  // does:
  //
  //   kFree     coordinator-owned, nothing in flight
  //   kStaging  every shard resets its own slice (fifos may hold stale mail
  //             only the owner may touch), acks; last ack -> kStaged. A
  //             one-shot epoch stages every slice from the coordinator,
  //             while the workers are parked at the epoch barrier.
  //   kStaged   coordinator pre-marks dead ranks, draws chaos crash
  //             schedules, arms the countdown, runs begin() -> kActive
  //   kActive   shards seed their run queues/watches once, then step ranks;
  //             the last shard credit or an expired deadline CASes ->
  //             kSealing
  //   kSealing  every shard finishes its current pass, then acks "no
  //             further callbacks for this slot"; last ack -> kDone. A
  //             one-shot epoch ends at kSealing: the retire raises done_ and
  //             the epoch barrier replaces the seal acks.
  //   kDone     coordinator collects metrics, destroys the protocol -> kFree
  //
  // Delivery maps an envelope to its slot by epoch % W; a late envelope of
  // a retired epoch lands in the reused slot's fifo and is discarded by the
  // consumption-time tag filter.

  /// Resets the executor for a run over `window` slots and stops the clock
  /// until start_clock. Runs with all workers parked at the epoch barrier.
  void open_window(std::size_t window, bool one_shot) {
    one_shot_ = one_shot;
    stepper_.open_window(window);
    for (Shard& shard : shards_) shard.reset();
    transport_.clear();  // both sides parked at the barrier
    done_.store(false, std::memory_order_relaxed);
  }

  /// kFree → kStaging: the coordinator hands the slot to the shards for
  /// their staging resets.
  void admit(Slot& slot, std::int64_t epoch) {
    epoch_ = epoch;
    slot.epoch = epoch;
    slot.stage_acks.store(0, std::memory_order_relaxed);
    slot.seal_acks.store(0, std::memory_order_relaxed);
    slot.retire_ns = -1;
    slot.timed_out = false;
    slot.state.store(kSlotStaging, std::memory_order_release);
  }

  /// kStaging: resets `shard`'s slice of slot `w`, then acks. The last ack
  /// hands the slot to the coordinator (kStaged).
  void stage_slice(Shard& shard, std::size_t w, Slot& slot) {
    stepper_.stage(shard, w, shard.lo, shard.hi);
    if (slot.stage_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == shards_.size()) {
      slot.state.store(kSlotStaged, std::memory_order_release);
      coordinator_bell_.notify();
    }
  }

  /// kStaged → kActive: the coordinator owns the slot here — every slice is
  /// staged, and no worker touches the slot's rank state until the kActive
  /// release-store. Under repair, ranks in the engine's dead set hold no
  /// execution slot; the slot keeps the dead set and generation it launched
  /// with, so boundaries need no synchronization of their own.
  void launch(Slot& slot, sim::Protocol& protocol, std::int64_t timeout_ns) {
    slot.remaining.store(static_cast<std::int32_t>(shards_.size()),
                         std::memory_order_relaxed);
    stepper_.launch(slot, protocol, repair_ ? &engine_.dead_ : nullptr, engine_.generation_,
                    timeout_ns);
    kick_all_shards();
  }

  void worker_main(std::size_t s) {
    for (;;) {
      epoch_barrier_.arrive_and_wait();  // epoch/stream start (or shutdown)
      if (shutdown_.load(std::memory_order_acquire)) return;
      shard_loop(s);
      epoch_barrier_.arrive_and_wait();  // epoch/stream end
    }
  }

  /// One worker's epoch or stream: scheduling passes until done_ — slot
  /// service, cross-shard drain, the stepper's pass (delayed release, crash
  /// watch, timer watch, bounded stepping of the active set, staged flush),
  /// deadline expiry. An idle pass parks.
  void shard_loop(std::size_t s) {
    Shard& shard = shards_[s];
    const std::chrono::nanoseconds idle_wait =
        shard.live_ranks.empty() ? std::chrono::nanoseconds(kEmptySliceWait) : kIdleWait;
    while (!done_.load(std::memory_order_acquire)) {
      sim::Time deadline = 0;
      bool progress = service_slots(shard, deadline);
      progress |= stepper_.drain(shard);
      bool expired = false;
      progress |= stepper_.pass(shard, deadline, expired);
      if (expired) progress |= expire_slots(stepper_.now());
      if (!progress && !done_.load(std::memory_order_acquire)) {
        transport_.park(s, idle_wait);
      }
    }
  }

  /// Per-pass slot service: stage resets, seed fresh activations, ack
  /// seals. Runs before the step loop so stale run-queue entries of a slot
  /// being restaged are popped only after its state says so. Reports the
  /// earliest deadline among the active slots (0 = none) in `deadline`.
  bool service_slots(Shard& shard, sim::Time& deadline) {
    bool any = false;
    for (std::size_t w = 0; w < stepper_.window(); ++w) {
      Slot& slot = stepper_.slot(w);
      const std::uint32_t state = slot.state.load(std::memory_order_acquire);
      // Only the kSlotStaging and kSlotActive branches may read the slot's
      // coordinator-written fields: those writes happen-before the
      // observed release store, and the next admission needs this shard's
      // seal ack first. The seal branch compares against
      // shard.staged_epoch[w] — this shard's own durable record of the
      // staged epoch — because a pass that observes kSlotSealing *after*
      // this shard already acked is unordered against the coordinator
      // re-admitting the slot, so reading slot.epoch there would race.
      if (state == kSlotActive) {
        if (shard.seeded_epoch[w] != shard.staged_epoch[w]) {
          stepper_.seed(shard, w);
          any = true;
        }
        if (slot.deadline_ns > 0 && (deadline == 0 || slot.deadline_ns < deadline)) {
          deadline = slot.deadline_ns;
        }
      } else if (state == kSlotStaging && shard.staged_epoch[w] != slot.epoch) {
        stage_slice(shard, w, slot);
        any = true;
      } else if (state == kSlotSealing &&
                 shard.sealed_epoch[w] != shard.staged_epoch[w]) {
        // Ack point: this shard runs no further callbacks for this slot's
        // epoch (steps re-check steppable(), the watch scans the state).
        shard.sealed_epoch[w] = shard.staged_epoch[w];
        if (slot.seal_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == shards_.size()) {
          slot.state.store(kSlotDone, std::memory_order_release);
          coordinator_bell_.notify();
        }
        any = true;
      }
    }
    return any;
  }

  /// Retires every active slot whose deadline passed by `t`, so every epoch
  /// terminates under any chaos.
  bool expire_slots(sim::Time t) {
    bool any = false;
    for (std::size_t w = 0; w < stepper_.window(); ++w) {
      Slot& slot = stepper_.slot(w);
      if (slot.state.load(std::memory_order_acquire) == kSlotActive &&
          slot.deadline_ns > 0 && t > slot.deadline_ns) {
        any |= retire(slot, /*timed_out=*/true, t);
      }
    }
    return any;
  }

  /// kActive → kSealing, won by exactly one caller: the last shard credit
  /// or an expired deadline. A one-shot epoch ends here.
  bool retire(Slot& slot, bool timed_out, sim::Time t) {
    std::uint32_t expected = kSlotActive;
    if (!slot.state.compare_exchange_strong(expected, kSlotSealing,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      return false;
    }
    slot.timed_out = timed_out;
    slot.retire_ns = t;
    if (one_shot_) {
      done_.store(true, std::memory_order_release);
    } else {
      coordinator_bell_.notify();
    }
    kick_all_shards();
    return true;
  }

  /// Stepper::Driver: one credit per shard and slot epoch.
  void slice_complete(Shard& /*shard*/, Slot& slot) override {
    if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      retire(slot, /*timed_out=*/false, stepper_.now());
    }
  }

  void kick_all_shards() {
    for (std::size_t s = 0; s < shards_.size(); ++s) transport_.kick(s);
  }

  // --- Stream coordinator ---------------------------------------------------

  /// kStaged → kActive for a streamed epoch. In repair mode the admission
  /// is the engine's heal boundary: revived ranks rejoin by fresh-epoch
  /// state transfer (the new protocol instance carries the epoch's full
  /// state, nothing to replay); epochs already in flight keep the
  /// membership they were launched with. Returns whether heal repaired.
  bool begin_stream_epoch(Slot& slot, const ProtocolFactory& factory) {
    slot.owned = factory();
    const HealResult heal = repair_ ? engine_.heal() : HealResult{};
    slot.rejoined = static_cast<std::int32_t>(heal.outages.size());
    launch(slot, *slot.owned, stream_timeout_ns_);
    return heal.repaired;
  }

  /// kDone → caller frees: all shards acked the seal, so the seal-ack
  /// chain's acq_rel fetch_adds give the coordinator a happens-after edge
  /// over every worker write to this slot's slice.
  void collect_stream_epoch(const Slot& slot, StreamEpoch& rec) {
    rec.epoch = slot.epoch;
    rec.scheduled_ns = slot.scheduled_ns;
    rec.admitted_ns = slot.admitted_ns;
    rec.begin_ns = slot.begin_ns;
    rec.retire_ns = slot.retire_ns;
    rec.timed_out = slot.timed_out;
    rec.rejoined = slot.rejoined;
    if (keep_rank_state_) rec.rank_state.resize(static_cast<std::size_t>(engine_.num_procs_));
    for (Rank r = 0; r < engine_.num_procs_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const std::size_t v = slot.base + ri;
      const RankEnd end = stepper_.end_state(v, ri);
      if (keep_rank_state_) rec.rank_state[ri] = end;
      if (end == RankEnd::kFailedAtStart) {
        // Pre-marked corpse: dead before this epoch was admitted — not a
        // survivor, not a fresh crash.
        if (!engine_.failed_[ri]) ++rec.dead_at_start;
        continue;
      }
      rec.messages += stepper_.sends(v);
      if (end == RankEnd::kCrashed) {
        ++rec.crashed;
        if (repair_) engine_.persist_crash(r, rec.epoch);
      } else if (end == RankEnd::kUncolored) {
        ++rec.uncolored;
      } else {
        ++rec.colored;
      }
    }
  }

  Engine& engine_;  // rank count, failures and the membership: dead set, generation, revivals
  const bool repair_;

  const std::size_t chunk_;       // ranks per shard; shard(r) = r / chunk_
  const std::size_t num_shards_;
  /// Cross-shard movement, parking and wakeup (DESIGN.md §4j).
  MeshTransport transport_;
  Stepper stepper_;
  std::deque<Shard> shards_;

  // Window state, written by the coordinator before the start barrier.
  bool one_shot_ = true;
  std::int64_t epoch_ = 0;  // last admitted epoch
  /// Workers leave the pass loop: the one-shot slot retired, or the stream
  /// coordinator collected its last epoch.
  std::atomic<bool> done_{false};
  Doorbell coordinator_bell_;

  // Stream-side state (coordinator-owned).
  std::int64_t stream_timeout_ns_ = 0;
  bool keep_rank_state_ = false;

  std::barrier<> epoch_barrier_;  // shards + coordinator, twice per run
  std::atomic<bool> shutdown_{false};
  std::vector<std::jthread> threads_;
};

/// Coordinator side of a stream: an admission/collection loop replaces the
/// per-epoch barrier bracket. Epoch base+i always runs in window slot
/// (base+i) mod W, matching the slot Stepper::land picks for its mail. Deadlines
/// are enforced by the workers, as for one-shot epochs.
StreamResult Engine::Sharded::run_stream(const ProtocolFactory& factory,
                                         const StreamOptions& options) {
  open_window(static_cast<std::size_t>(options.window), /*one_shot=*/false);
  stream_timeout_ns_ = options.epoch_timeout.count();
  keep_rank_state_ = options.keep_rank_state;
  stepper_.start_clock();
  epoch_barrier_.arrive_and_wait();  // workers enter shard_loop

  StreamResult result;
  result.epochs.resize(static_cast<std::size_t>(options.epochs));
  const std::int64_t base_epoch = epoch_ + 1;
  const double interval_ns = options.rate > 0.0 ? 1e9 / options.rate : 0.0;
  std::int64_t admitted = 0;
  std::int64_t collected = 0;
  const Clock::time_point wall_start = Clock::now();

  while (collected < options.epochs) {
    bool progress = false;

    // Collect retired epochs (any slot, any completion order).
    for (std::size_t w = 0; w < stepper_.window(); ++w) {
      Slot& slot = stepper_.slot(w);
      if (slot.state.load(std::memory_order_acquire) != kSlotDone) continue;
      collect_stream_epoch(slot,
                           result.epochs[static_cast<std::size_t>(slot.epoch - base_epoch)]);
      slot.owned.reset();
      slot.state.store(kSlotFree, std::memory_order_release);
      ++collected;
      progress = true;
    }

    // Launch any slot whose staging reset all shards have acked.
    for (std::size_t w = 0; w < stepper_.window(); ++w) {
      Slot& slot = stepper_.slot(w);
      if (slot.state.load(std::memory_order_acquire) != kSlotStaged) continue;
      result.repairs += begin_stream_epoch(slot, factory);
      progress = true;
    }

    // Admit the next epoch once its arrival is due and its slot is free.
    // A full window *blocks* admission (epochs queue, never drop) — that
    // queueing delay is exactly what open-loop sojourn times surface.
    if (admitted < options.epochs) {
      const std::int64_t epoch = base_epoch + admitted;
      Slot& slot = stepper_.slot(static_cast<std::size_t>(epoch) % stepper_.window());
      const std::int64_t due_ns =
          interval_ns > 0.0
              ? static_cast<std::int64_t>(static_cast<double>(admitted) * interval_ns)
              : 0;
      if ((interval_ns == 0.0 || stepper_.now() >= due_ns) &&
          slot.state.load(std::memory_order_acquire) == kSlotFree) {
        slot.admitted_ns = stepper_.now();
        slot.scheduled_ns = interval_ns > 0.0 ? due_ns : slot.admitted_ns;
        admit(slot, epoch);
        kick_all_shards();
        ++admitted;
        progress = true;
      }
    }

    if (!progress) {
      // Bounded park: a missed notify costs at most kIdleWait, same
      // contract the worker bells rely on; open-loop arrivals come due
      // without any notify at all.
      coordinator_bell_.wait(kIdleWait, [&] {
        for (std::size_t w = 0; w < stepper_.window(); ++w) {
          const std::uint32_t state = stepper_.slot(w).state.load(std::memory_order_acquire);
          if (state == kSlotDone || state == kSlotStaged) return true;
        }
        return false;
      });
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  done_.store(true, std::memory_order_release);
  kick_all_shards();
  epoch_barrier_.arrive_and_wait();  // workers leave shard_loop
  return result;
}

// ---------------------------------------------------------------------------
// Engine facade: validation and membership bookkeeping.
// ---------------------------------------------------------------------------

Engine::Engine(Rank num_procs, std::vector<char> failed, EngineOptions options)
    : num_procs_(num_procs), failed_(std::move(failed)), options_(options) {
  if (num_procs < 1) throw std::invalid_argument("engine needs at least one rank");
  if (static_cast<Rank>(failed_.size()) != num_procs) {
    throw std::invalid_argument("failed flag vector must have P entries");
  }
  if (failed_[0]) throw std::invalid_argument("rank 0 (the root) cannot fail");
  if (options_.mesh_capacity == 0) {
    throw std::invalid_argument(
        "EngineOptions::mesh_capacity must be >= 1 (0 would make every "
        "SPSC ring unable to accept any envelope)");
  }
  live_count_ = 0;
  for (char f : failed_) live_count_ += (f == 0);
  // Membership starts as the identity view even with construction failures:
  // the initial tree/ring span [0, P) with failed ranks as holes, exactly
  // the pre-repair behavior. The first generation bump compacts over *all*
  // dead ranks (construction failures included).
  dead_ = failed_;
  membership_ = MembershipView::identity(num_procs_);
  sharded_ = std::make_unique<Sharded>(*this);
}

Engine::~Engine() = default;

std::size_t Engine::worker_threads() const noexcept { return sharded_->worker_threads(); }

void Engine::set_chaos(ChaosPlan plan) {
  chaos_ = std::move(plan);
  sharded_->set_chaos(chaos_.enabled() ? &chaos_ : nullptr);
}

void Engine::persist_crash(topo::Rank r, std::int64_t epoch) {
  auto& flag = dead_[static_cast<std::size_t>(r)];
  if (flag) return;
  flag = 1;
  unrepaired_ = true;
  // The revival is keyed by the epoch the rank crashed in (the ChaosPlan
  // determinism contract) and timed from the retirement that persists it.
  const std::int64_t delay = chaos_.revive_after_ns(epoch, r);
  if (delay >= 0) {
    down_.push_back(Down{r, epoch, Clock::now() + std::chrono::nanoseconds(delay)});
  }
}

void Engine::bump_generation() {
  generation_ = (generation_ + 1) & 0xFF;  // 8-bit field in the envelope tag
  unrepaired_ = false;
  live_count_ = 0;
  for (const char d : dead_) live_count_ += (d == 0);
  membership_ = MembershipView::over_survivors(dead_, generation_);
}

HealResult Engine::heal() {
  HealResult result;
  const Clock::time_point now = Clock::now();
  std::erase_if(down_, [&](const Down& down) {
    if (now < down.revive_at) return false;
    dead_[static_cast<std::size_t>(down.rank)] = 0;
    result.outages.push_back(sharded_->last_epoch() - down.crash_epoch + 1);
    return true;
  });
  result.repaired = unrepaired_ || !result.outages.empty();
  if (result.repaired) bump_generation();
  return result;
}

bool Engine::repair_membership(const std::vector<topo::Rank>& newly_dead,
                               const std::vector<topo::Rank>& revived) {
  if (!options_.repair) {
    throw std::logic_error(
        "repair_membership requires EngineOptions::repair (without it "
        "crashes are per-epoch and there is no persistent dead set to mend)");
  }
  auto check = [this](topo::Rank r) {
    if (r < 0 || r >= num_procs_) {
      throw std::invalid_argument("repair_membership: rank out of range");
    }
    if (r == 0) {
      throw std::invalid_argument(
          "repair_membership: rank 0 roots every collective and cannot "
          "change state");
    }
  };
  bool changed = unrepaired_;
  for (const topo::Rank r : newly_dead) {
    check(r);
    auto& flag = dead_[static_cast<std::size_t>(r)];
    changed |= (flag == 0);
    flag = 1;
  }
  for (const topo::Rank r : revived) {
    check(r);
    if (failed_[static_cast<std::size_t>(r)]) {
      throw std::invalid_argument(
          "repair_membership: ranks failed at construction hold no "
          "execution slot and cannot revive");
    }
    auto& flag = dead_[static_cast<std::size_t>(r)];
    changed |= (flag != 0);
    flag = 0;
  }
  // A rank revived here no longer waits for its scheduled revival.
  std::erase_if(down_, [&](const Down& down) {
    return dead_[static_cast<std::size_t>(down.rank)] == 0;
  });
  if (!changed) return false;
  bump_generation();
  return true;
}

EpochResult Engine::run_epoch(sim::Protocol& protocol, std::chrono::nanoseconds timeout) {
  EpochResult result = sharded_->run_epoch(protocol, timeout.count());
  if (options_.repair) {
    for (const topo::Rank r : result.crashed_ranks) persist_crash(r, sharded_->last_epoch());
  }
  return result;
}

StreamResult Engine::run_stream(const ProtocolFactory& factory,
                                const StreamOptions& options) {
  if (!factory) throw std::invalid_argument("run_stream: factory must be callable");
  if (options.epochs < 1) throw std::invalid_argument("run_stream: epochs must be >= 1");
  if (options.window < 1 || static_cast<std::size_t>(options.window) > kMaxWindow) {
    throw std::invalid_argument("run_stream: window must be in [1, 64]");
  }
  if (options.rate < 0.0) throw std::invalid_argument("run_stream: rate must be >= 0");
  return sharded_->run_stream(factory, options);
}

}  // namespace ct::rt
