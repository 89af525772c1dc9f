// Sharded M:N executor (DESIGN.md §4c, §4f, §4h): N worker threads, each
// owning a contiguous slice of ranks whose unchanged sim::Protocol state
// machines it steps cooperatively. Intra-shard delivery lands in per-rank
// LocalFifo ring buffers (no locks — single-threaded within a shard);
// cross-shard delivery is staged per destination during a scheduling pass
// and flushed as whole batches through the Transport seam (DESIGN.md §4j),
// the lock-free SPSC ring mesh: one ring per ordered shard pair, two
// uncontended cache-line publishes per pair and pass, never a lock.
//
// Scheduling within a shard is an active set, not a slice sweep: a run
// queue holds exactly the ranks with pending work (seeded with every live
// rank once per epoch so begin()-time state is noticed), and delivery,
// timer expiry, and chaos events re-arm ranks as work appears. Idle ranks
// cost nothing per pass — at 36Ki ranks on one core this, not protocol
// cost, was the dominant term. Ranks with no queue entry can still owe
// events, so three side watch lists cover them: pending timers, scheduled
// chaos crashes, and chaos-delayed envelopes.
//
// Every epoch runs in a window slot. Slot w hosts one in-flight epoch over
// a full copy of the rank state, virtual rank v = w·P + r. A stream keeps W
// slots in flight; a one-shot run_epoch is slot 0 of a one-slot window, so
// its arrays stay sized P and its virtual ranks are the ranks themselves.
// Both run through the same per-shard pass loop and the same rank stepper.
//
// Concurrency contract: during an epoch, protocol callbacks for rank `me`
// may only call Context::send/set_timer/mark_colored/set_rank_data for `me`
// itself — cross-rank Context writes are legal only from Protocol::begin(),
// which the coordinator runs before the slot goes active. Every protocol in
// this repo satisfies this (tests/rt_stress_test.cpp checks it under TSan).

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "rt/step_caps.hpp"
#include "rt/transport_mem.hpp"

namespace ct::rt {

using topo::Rank;

namespace {

constexpr std::chrono::microseconds kIdleWait{50};
/// Park slice of a shard whose whole slice failed at construction: it steps
/// nothing and receives nothing (failed destinations are dropped at the
/// source), and every slot transition kicks it.
constexpr std::chrono::milliseconds kEmptySliceWait{5};
/// Largest stream window (StreamOptions::window).
constexpr std::size_t kMaxWindow = 64;

/// The smaller positive bound of a per-call timeout and the engine-wide
/// epoch deadline, in ns; 0 = none.
std::int64_t bounded_timeout(std::chrono::nanoseconds timeout,
                             std::chrono::nanoseconds deadline) {
  std::int64_t timeout_ns = timeout.count();
  const std::int64_t deadline_ns = deadline.count();
  if (deadline_ns > 0 && (timeout_ns <= 0 || deadline_ns < timeout_ns)) {
    timeout_ns = deadline_ns;
  }
  return timeout_ns;
}

}  // namespace

class Engine::Sharded {
 public:
  Sharded(Rank num_procs, const std::vector<char>& failed, const EngineOptions& options)
      : num_procs_(num_procs),
        failed_(failed),
        dead_(failed),
        repair_(options.repair),
        fifo_(static_cast<std::size_t>(num_procs)),
        outbox_(static_cast<std::size_t>(num_procs)),
        timers_(static_cast<std::size_t>(num_procs)),
        core_(static_cast<std::size_t>(num_procs)),
        dropped_(static_cast<std::size_t>(num_procs), 0),
        delayed_stat_(static_cast<std::size_t>(num_procs), 0),
        duped_(static_cast<std::size_t>(num_procs), 0),
        epoch_barrier_(build_shards(options) + 1) {
    for (const char f : failed_) live_ += (f == 0);
    for (std::size_t w = 0; w < kMaxWindow; ++w) slots_[w].bind(*this, w);
    threads_.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
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
    Slot& slot = slots_[0];
    admit(slot, ++epoch_);
    for (Shard& shard : shards_) stage_slice(shard, 0, slot);
    launch(slot, protocol, dead_, generation_, timeout_ns);
    start_clock();
    epoch_barrier_.arrive_and_wait();  // epoch start
    epoch_barrier_.arrive_and_wait();  // epoch end
    return collect_epoch(slot);
  }

  StreamResult run_stream(const ProtocolFactory& factory, const StreamOptions& options,
                          std::int64_t timeout_ns);

  std::size_t worker_threads() const noexcept { return threads_.size(); }

  /// nullptr disables injection. The plan outlives all epochs run under it.
  void set_chaos(const ChaosPlan* plan) { chaos_ = plan; }

  /// Repair pass (DESIGN.md §4i): adopt a new persistent dead set for
  /// subsequent one-shot epochs. Runs between epochs while every worker is
  /// parked at the epoch barrier, which publishes the writes.
  void set_membership(const std::vector<char>& dead, std::int32_t generation) {
    dead_ = dead;
    generation_ = generation;
  }

 private:
  struct Timer {
    sim::Time when;
    std::int64_t id;
    bool fired = false;
  };

  /// Per-virtual-rank hot scalars, one cache line per rank. A step used to
  /// touch ~eight parallel arrays — eight cache-miss streams once P outgrows
  /// the L2 — and at 16Ki–36Ki ranks those misses, not protocol work,
  /// dominated the epoch. One line holds everything a step reads or writes
  /// outside the fifo/outbox/timer payloads, including the rank's identity,
  /// so no step or delivery divides by P. alignas(64) also makes the line
  /// owner-exclusive: no false sharing across a shard boundary.
  struct alignas(64) RankCore {
    std::int64_t sends = 0;
    std::int64_t rank_data = 0;
    std::int64_t completion_ns = -1;
    std::int64_t crash_at_ns = -1;
    std::int64_t crash_budget = -1;
    Rank rank = 0;           // identity: v = slot·P + rank
    std::uint8_t slot = 0;
    char colored = 0;
    char completed = 0;
    /// Crashed mid-epoch, or dead when the slot's epoch was admitted. A
    /// crashed rank's mail is discarded when it is next stepped.
    char crashed = 0;
    char queued = 0;         // rank is in its shard's run_queue
    char timer_watched = 0;  // rank is on its shard's timer_watch
    /// Repair mode: already persistently dead when the slot's epoch was
    /// admitted (pre-marked crashed + completed by the coordinator) —
    /// collection reports it as failed-at-start, not as a mid-epoch crash.
    char dead_at_start = 0;
  };
  static_assert(sizeof(RankCore) == 64);

  /// An envelope held back by the chaos layer until release_ns. Owned by
  /// the *sending* shard — the network keeps in-flight messages even if
  /// the sender crashes after the send.
  struct Delayed {
    Envelope envelope;
    std::int64_t release_ns;
  };

  /// Per-worker state. The rank slice [lo, hi) is contiguous so the rank →
  /// shard map is one multiply; live_ranks caches the slice minus
  /// construction failures. Cross-shard queues, parking and wakeup live
  /// behind transport_.
  struct Shard {
    Shard(Rank lo_in, Rank hi_in, std::size_t num_shards)
        : lo(lo_in), hi(hi_in), staged(num_shards) {}

    Rank lo;
    Rank hi;
    std::vector<Rank> live_ranks;
    std::vector<StagedQueue> staged;             // outgoing, per destination shard
    std::vector<Delayed> delayed;                // chaos-delayed, awaiting release

    // Active-set scheduler over virtual ranks (owner thread only between
    // the epoch barriers). run_queue is a FIFO with a consumed prefix
    // [0, run_head); RankCore::queued keeps membership O(1).
    std::vector<Rank> run_queue;
    std::size_t run_head = 0;
    std::vector<Rank> timer_watch;  // ranks with >= 1 unfired timer
    std::vector<Rank> crash_watch;  // ranks with a scheduled chaos crash

    // The epoch this shard last staged, seeded and sealed per window slot —
    // comparing against it makes each handshake phase idempotent per pass
    // without extra atomics.
    std::array<std::int64_t, kMaxWindow> staged_epoch{};
    std::array<std::int64_t, kMaxWindow> seeded_epoch{};
    std::array<std::int64_t, kMaxWindow> sealed_epoch{};
  };

  // Window slot states. A slot cycles through an atomic state machine;
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
  //             the last completion or an expired deadline CASes -> kSealing
  //   kSealing  every shard finishes its current pass, then acks "no
  //             further callbacks for this slot"; last ack -> kDone. A
  //             one-shot epoch ends at kSealing: the retire raises done_ and
  //             the epoch barrier replaces the seal acks.
  //   kDone     coordinator collects metrics, destroys the protocol -> kFree
  //
  // Delivery maps an envelope to its slot by epoch % W; a late envelope of
  // a retired epoch lands in the reused slot's fifo and is discarded by the
  // consumption-time tag filter.
  enum : std::uint32_t {
    kSlotFree = 0,
    kSlotStaging = 1,
    kSlotStaged = 2,
    kSlotActive = 3,
    kSlotSealing = 4,
    kSlotDone = 5,
  };

  struct Slot;

  /// The sim::Context facade of one window slot: rank r translates to
  /// virtual rank slot·P + r, and sends are stamped with the slot's tag.
  class Context final : public sim::Context {
   public:
    void bind(Sharded& impl, const Slot& slot) {
      impl_ = &impl;
      slot_ = &slot;
    }

    sim::Time now() const override { return impl_->now(); }
    Rank num_procs() const override { return impl_->num_procs_; }

    void send(Rank from, Rank to, sim::Tag tag, std::int64_t payload) override {
      // Queued on the sender's outbox; the shard stepping `from` delivers it
      // and then runs the on_sent callback.
      const std::size_t v = vindex(from);
      impl_->outbox_[v].push_back(Envelope{
          sim::Message{.src = from, .dst = to, .tag = tag, .payload = payload,
                       .data = impl_->core_[v].rank_data},
          slot_->tag});
    }
    void set_rank_data(Rank r, std::int64_t data) override {
      impl_->core_[vindex(r)].rank_data = data;
    }
    std::int64_t rank_data(Rank r) const override {
      return impl_->core_[vindex(r)].rank_data;
    }
    void set_timer(Rank on, sim::Time when, std::int64_t id) override {
      // No watch registration here: the caller may be the coordinator
      // running begin() while workers run other slots, and only the owning
      // shard may touch its watch lists. step_rank registers pending timers
      // on the owner thread, and seeding steps every live rank once.
      impl_->timers_[vindex(on)].push_back({when, id, false});
    }
    void mark_colored(Rank r) override { impl_->core_[vindex(r)].colored = 1; }
    bool is_colored(Rank r) const override {
      return impl_->core_[vindex(r)].colored != 0;
    }
    void note_correction_start() override {}  // gap snapshot: a sim-only metric

   private:
    std::size_t vindex(Rank r) const noexcept {
      return slot_->base + static_cast<std::size_t>(r);
    }

    Sharded* impl_ = nullptr;
    const Slot* slot_ = nullptr;
  };

  struct Slot {
    void bind(Sharded& impl, std::size_t w) {
      base = w * static_cast<std::size_t>(impl.num_procs_);
      context.bind(impl, *this);
    }

    // Read-mostly line: written by the coordinator before the kActive
    // release, read by workers on every step and send.
    alignas(64) std::atomic<std::uint32_t> state{kSlotFree};
    std::int32_t tag = 0;  // Envelope::make_tag(epoch, generation)
    std::size_t base = 0;  // virtual rank of rank 0
    sim::Protocol* protocol = nullptr;
    std::int64_t epoch = -1;
    std::int64_t deadline_ns = 0;  // absolute engine time; 0 = none
    Context context;

    // Contended line: the completion countdown and the handshake acks.
    alignas(64) std::atomic<std::int32_t> remaining{0};
    std::atomic<std::uint32_t> stage_acks{0};
    std::atomic<std::uint32_t> seal_acks{0};
    // Written once, by the worker whose CAS retired the slot; read after
    // the seal handshake (streams) or the epoch barrier (one-shot).
    std::int64_t retire_ns = -1;
    bool timed_out = false;
    // Coordinator-only.
    std::int64_t scheduled_ns = 0;
    std::int64_t admitted_ns = 0;
    std::int64_t begin_ns = 0;
    std::int32_t rejoined = 0;  // repair mode: revivals joining this epoch
    std::unique_ptr<sim::Protocol> owned;  // stream slots own their protocol
  };

  /// Carves [0, P) into contiguous slices of ceil(P / workers) ranks, builds
  /// the S² ring mesh, and returns the shard count (for the barrier's
  /// participant total).
  std::ptrdiff_t build_shards(const EngineOptions& options) {
    const auto p = static_cast<std::size_t>(num_procs_);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::size_t workers =
        options.workers > 0 ? static_cast<std::size_t>(options.workers) : hw;
    // Oversubscription cap (see EngineOptions::workers): shards beyond this
    // only inflate the S² mesh and timeshare the same cores. Generous floor
    // of 16 so multi-worker tests behave identically on small CI hosts.
    workers = std::min(workers, std::max<std::size_t>(16, 8 * hw));
    workers = std::min(workers, p);
    chunk_ = (p + workers - 1) / workers;
    // Round-up reciprocal for the delivery path's shard lookup: exact for
    // every rank and chunk below 2^32 (rank·e < 2^64 in the usual round-up
    // bound). chunk_ == 1 wraps the reciprocal to 0; shard_of branches.
    chunk_mul_ = ~std::uint64_t{0} / chunk_ + 1;
    const std::size_t num_shards = (p + chunk_ - 1) / chunk_;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const auto lo = static_cast<Rank>(s * chunk_);
      const auto hi = static_cast<Rank>(std::min(p, (s + 1) * chunk_));
      Shard& shard = shards_.emplace_back(lo, hi, num_shards);
      for (Rank r = lo; r < hi; ++r) {
        if (!failed_[static_cast<std::size_t>(r)]) shard.live_ranks.push_back(r);
      }
    }
    transport_ = std::make_unique<MeshTransport>(num_shards, options.mesh_capacity);
    return static_cast<std::ptrdiff_t>(num_shards);
  }

  sim::Time now() const {
    if (!started_.load(std::memory_order_acquire)) return 0;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_start_)
        .count();
  }

  void start_clock() {
    epoch_start_ = Clock::now();
    started_.store(true, std::memory_order_release);
  }

  /// Resets the executor for a run over `window` slots: the rank arrays
  /// cover window·P virtual ranks, every queue and watch list is cleared,
  /// the chaos hooks are latched, and the clock stops until start_clock.
  /// Runs with all workers parked at the epoch barrier.
  void open_window(std::size_t window, bool one_shot) {
    window_ = window;
    one_shot_ = one_shot;
    const std::size_t total = window * static_cast<std::size_t>(num_procs_);
    if (core_.size() < total) {
      fifo_.resize(total);
      outbox_.resize(total);
      timers_.resize(total);
      core_.resize(total);
      dropped_.resize(total, 0);
      delayed_stat_.resize(total, 0);
      duped_.resize(total, 0);
    }
    crash_active_ = chaos_ != nullptr && chaos_->crashes_enabled();
    link_active_ = chaos_ != nullptr && chaos_->links_enabled();
    for (Shard& shard : shards_) {
      for (auto& staged : shard.staged) staged.clear();
      shard.delayed.clear();
      shard.run_queue.clear();
      shard.run_head = 0;
      shard.timer_watch.clear();
      shard.crash_watch.clear();
      shard.staged_epoch.fill(-1);
      shard.seeded_epoch.fill(-1);
      shard.sealed_epoch.fill(-1);
    }
    transport_->clear();  // both sides parked at the barrier
    for (std::size_t w = 0; w < window; ++w) {
      slots_[w].state.store(kSlotFree, std::memory_order_relaxed);
    }
    done_.store(false, std::memory_order_relaxed);
    started_.store(false, std::memory_order_release);
  }

  std::size_t slot_of_epoch(std::int64_t epoch) const noexcept {
    return static_cast<std::size_t>(epoch % static_cast<std::int64_t>(window_));
  }

  /// kFree → kStaging: the coordinator hands the slot to the shards for
  /// their staging resets.
  void admit(Slot& slot, std::int64_t epoch) {
    slot.epoch = epoch;
    slot.stage_acks.store(0, std::memory_order_relaxed);
    slot.seal_acks.store(0, std::memory_order_relaxed);
    slot.remaining.store(0, std::memory_order_relaxed);
    slot.retire_ns = -1;
    slot.timed_out = false;
    slot.state.store(kSlotStaging, std::memory_order_release);
  }

  /// kStaging: resets `shard`'s slice of slot `w` — the fifos may hold stale
  /// mail only the owner may touch — then acks. The last ack hands the slot
  /// to the coordinator (kStaged).
  void stage_slice(Shard& shard, std::size_t w, Slot& slot) {
    shard.staged_epoch[w] = slot.epoch;
    for (Rank r = shard.lo; r < shard.hi; ++r) {
      const std::size_t v = slot.base + static_cast<std::size_t>(r);
      fifo_[v].clear();
      outbox_[v].clear();
      timers_[v].clear();
      core_[v] = RankCore{.rank = r, .slot = static_cast<std::uint8_t>(w)};
      if (link_active_) {
        dropped_[v] = 0;
        delayed_stat_[v] = 0;
        duped_[v] = 0;
      }
    }
    purge_slot_watch(shard.timer_watch, w);
    purge_slot_watch(shard.crash_watch, w);
    if (slot.stage_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == shards_.size()) {
      slot.state.store(kSlotStaged, std::memory_order_release);
      coordinator_bell_.notify();
    }
  }

  /// Drops watch entries of window slot `w` (their dedup flags were just
  /// reset by the staging pass).
  void purge_slot_watch(std::vector<Rank>& list, std::size_t w) {
    std::size_t keep = 0;
    for (const Rank v : list) {
      if (core_[static_cast<std::size_t>(v)].slot != w) list[keep++] = v;
    }
    list.resize(keep);
  }

  /// kStaged → kActive: the coordinator owns the slot here — every slice is
  /// staged, and no worker touches the slot's rank state until the kActive
  /// release-store publishes everything written below. Ranks in `dead` are
  /// pre-marked crashed and completed: they hold no execution slot in this
  /// epoch, and their mail is discarded like a crashed rank's.
  void launch(Slot& slot, sim::Protocol& protocol, const std::vector<char>& dead,
              std::int32_t generation, std::int64_t timeout_ns) {
    slot.protocol = &protocol;
    slot.begin_ns = now();
    slot.deadline_ns = timeout_ns > 0 ? slot.begin_ns + timeout_ns : 0;
    slot.tag = Envelope::make_tag(slot.epoch, generation);
    std::int32_t dead_count = 0;
    if (repair_ || crash_active_) {
      for (Rank r = 0; r < num_procs_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (failed_[ri]) continue;
        RankCore& core = core_[slot.base + ri];
        if (dead[ri]) {
          core.dead_at_start = 1;
          core.crashed = 1;
          core.completed = 1;
          ++dead_count;
        } else if (crash_active_) {
          const std::int64_t at = chaos_->crash_ns(slot.epoch, r);
          core.crash_at_ns = at >= 0 ? slot.begin_ns + at : -1;
          core.crash_budget = chaos_->crash_send_budget(r);
        }
      }
    }
    slot.remaining.store(live_ - dead_count, std::memory_order_relaxed);
    protocol.begin(slot.context);
    slot.state.store(kSlotActive, std::memory_order_release);
    kick_all_shards();
  }

  /// How virtual rank `v` (global rank `r`) ended its slot's epoch.
  RankEnd end_state(std::size_t v, std::size_t r) const {
    const RankCore& core = core_[v];
    if (failed_[r] || core.dead_at_start) return RankEnd::kFailedAtStart;
    if (core.crashed) return RankEnd::kCrashed;
    return core.colored ? RankEnd::kColored : RankEnd::kUncolored;
  }

  /// The one-shot epoch's full result (slot 0: virtual rank == rank).
  EpochResult collect_epoch(const Slot& slot) const {
    EpochResult result;
    result.timed_out = slot.timed_out;
    result.rank_state.resize(static_cast<std::size_t>(num_procs_));
    for (Rank r = 0; r < num_procs_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const RankEnd end = end_state(ri, ri);
      result.rank_state[ri] = end;
      // Failed at construction or persistently dead under repair mode:
      // either way the rank held no execution slot this epoch, so it is
      // not a survivor and cannot degrade the epoch.
      if (end == RankEnd::kFailedAtStart) continue;
      const RankCore& core = core_[ri];
      result.total_messages += core.sends;
      result.rank_completion_ns.push_back(core.completion_ns);
      result.completion_ns = std::max(result.completion_ns, core.completion_ns);
      if (end == RankEnd::kCrashed) {
        result.crashed_ranks.push_back(r);
        ++result.crashed_mid_epoch;
        continue;
      }
      if (end == RankEnd::kUncolored) {
        result.uncolored_survivors.push_back(r);
        ++result.uncolored_live;
      }
      for (const Timer& timer : timers_[ri]) {
        if (!timer.fired) ++result.timers_pending;
      }
    }
    if (link_active_) {
      for (std::size_t ri = 0; ri < static_cast<std::size_t>(num_procs_); ++ri) {
        result.messages_dropped += dropped_[ri];
        result.messages_delayed += delayed_stat_[ri];
        result.messages_duplicated += duped_[ri];
      }
    }
    if (result.degraded()) {
      // Survivor coloring on the correction ring: crashed and failed ranks
      // are holes, exactly as the paper's gap analysis treats dead ranks.
      std::vector<char> survivor_colored(static_cast<std::size_t>(num_procs_), 0);
      bool any_colored = false;
      for (std::size_t ri = 0; ri < survivor_colored.size(); ++ri) {
        if (result.rank_state[ri] == RankEnd::kColored) {
          survivor_colored[ri] = 1;
          any_colored = true;
        }
      }
      if (any_colored) result.coloring_gaps = topo::analyze_gaps(survivor_colored);
    }
    return result;
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
  /// service, cross-shard drain, delayed release, crash watch, timer watch,
  /// bounded stepping of the active set (so flushes and deadlines stay
  /// responsive), staged flush, deadline expiry. An idle pass parks.
  void shard_loop(std::size_t s) {
    Shard& shard = shards_[s];
    // Per-pass step bound: an activation cascade (each step re-arming the
    // ranks it delivered to) may otherwise run arbitrarily long before the
    // next flush/drain/deadline checkpoint. A full slice's worth per slot
    // keeps the pass no heavier than a sweep; leftovers stay queued.
    const std::size_t step_budget =
        std::max<std::size_t>(shard.live_ranks.size() * window_, 1024);
    const std::chrono::nanoseconds idle_wait =
        shard.live_ranks.empty() ? std::chrono::nanoseconds(kEmptySliceWait) : kIdleWait;
    while (!done_.load(std::memory_order_acquire)) {
      sim::Time deadline = 0;
      bool progress = service_slots(shard, deadline);
      progress |= drain_cross_shard(s, shard);

      const sim::Time pass_now = now();
      if (link_active_ && !shard.delayed.empty()) {
        progress |= release_delayed(s, shard, pass_now);
      }
      if (crash_active_ && !shard.crash_watch.empty()) {
        progress |= scan_crash_watch(shard, pass_now);
      }
      if (!shard.timer_watch.empty()) {
        progress |= scan_timer_watch(shard, pass_now);
      }

      bool expired = deadline > 0 && pass_now > deadline;
      std::size_t stepped = 0;
      while (shard.run_head < shard.run_queue.size() && stepped < step_budget) {
        const auto v = static_cast<std::size_t>(shard.run_queue[shard.run_head++]);
        core_[v].queued = 0;
        ++stepped;
        const std::size_t w = core_[v].slot;
        Slot& slot = slots_[w];
        // Stale entry (slot retired in an earlier pass, or restaged since
        // queueing): skip without re-arming.
        if (!steppable(shard, w, slot.state.load(std::memory_order_acquire))) continue;
        progress |= step_rank(s, shard, v, slot, pass_now);
        // Receive/chained-send caps can leave backlog behind; re-arm so the
        // rank resumes without waiting for fresh mail.
        if (!fifo_[v].empty() || !outbox_[v].empty()) activate(shard, v);
        // A pass can outlive the deadline by itself (thousands of active
        // ranks, each draining capped-but-real backlogs), so the deadline
        // is also checked on a stride *inside* the pass.
        if (deadline > 0 && (stepped & 0x3FFu) == 0 && now() > deadline) {
          expired = true;
          break;
        }
      }
      if (shard.run_head > 0) {
        if (shard.run_head == shard.run_queue.size()) {
          shard.run_queue.clear();
        } else {
          shard.run_queue.erase(
              shard.run_queue.begin(),
              shard.run_queue.begin() + static_cast<std::ptrdiff_t>(shard.run_head));
        }
        shard.run_head = 0;
      }
      // A budget-cut pass must not park on top of runnable work.
      progress |= !shard.run_queue.empty();

      progress |= flush_staged(s, shard);

      if (expired) progress |= expire_slots(now());

      if (!progress && !done_.load(std::memory_order_acquire)) {
        transport_->park(s, idle_wait);
      }
    }
  }

  /// Per-pass slot service: stage resets, seed fresh activations, ack
  /// seals. Runs before the step loop so stale run-queue entries of a slot
  /// being restaged are popped only after its state says so. Reports the
  /// earliest deadline among the active slots (0 = none) in `deadline`.
  bool service_slots(Shard& shard, sim::Time& deadline) {
    bool any = false;
    for (std::size_t w = 0; w < window_; ++w) {
      Slot& slot = slots_[w];
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
          seed_slice(shard, w, slot);
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

  /// First kActive sighting: arm the run queue and the crash watch for this
  /// shard's slice. Every live rank is stepped once, so begin()-time
  /// outboxes, timers and coloring are noticed even if no mail ever arrives.
  void seed_slice(Shard& shard, std::size_t w, const Slot& slot) {
    shard.seeded_epoch[w] = shard.staged_epoch[w];
    for (const Rank r : shard.live_ranks) {
      const std::size_t v = slot.base + static_cast<std::size_t>(r);
      if (core_[v].dead_at_start) continue;
      activate(shard, v);
      if (crash_active_ && core_[v].crash_at_ns >= 0) {
        shard.crash_watch.push_back(static_cast<Rank>(v));
      }
    }
  }

  /// May `shard` still step ranks of slot `w`? While the slot is active,
  /// and for the rest of the pass in which it retired: a shard stops only
  /// when it acks the seal at its next pass start — or, for a one-shot
  /// epoch, when it leaves the pass loop.
  static bool steppable(const Shard& shard, std::size_t w, std::uint32_t state) {
    return state == kSlotActive ||
           (state == kSlotSealing && shard.sealed_epoch[w] != shard.staged_epoch[w]);
  }

  /// Retires every active slot whose deadline passed by `t`, so every epoch
  /// terminates under any chaos.
  bool expire_slots(sim::Time t) {
    bool any = false;
    for (std::size_t w = 0; w < window_; ++w) {
      Slot& slot = slots_[w];
      if (slot.state.load(std::memory_order_acquire) == kSlotActive &&
          slot.deadline_ns > 0 && t > slot.deadline_ns) {
        any |= retire(slot, /*timed_out=*/true, t);
      }
    }
    return any;
  }

  /// kActive → kSealing, won by exactly one caller: the last completion
  /// credit or an expired deadline. A one-shot epoch ends here.
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

  /// Completion credit for one live virtual rank (completed or crashed).
  void credit_completion(Slot& slot) {
    if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      retire(slot, /*timed_out=*/false, now());
    }
  }

  /// Adds virtual rank `v` (owned by `shard`) to the active set if absent.
  void activate(Shard& shard, std::size_t v) {
    if (!core_[v].queued) {
      core_[v].queued = 1;
      shard.run_queue.push_back(static_cast<Rank>(v));
    }
  }

  /// Claims pending cross-shard mail from the transport in one batch and
  /// lands it. Envelopes go straight from the ring slot into the
  /// destination fifo through the sink (one 32-byte copy plus a predicted
  /// indirect call); the poll itself is one virtual call per pass.
  bool drain_cross_shard(std::size_t s, Shard& shard) {
    auto sink = [&](const Envelope& envelope) { land(shard, envelope); };
    return transport_->poll_into(s, EnvelopeSink(sink)) > 0;
  }

  /// Fires due timers for watched ranks and compacts the watch list down to
  /// ranks that still owe one. Index loop: on_timer may set a new timer,
  /// which step_rank (not this scan) registers.
  bool scan_timer_watch(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < shard.timer_watch.size(); ++i) {
      const auto v = static_cast<std::size_t>(shard.timer_watch[i]);
      Slot& slot = slots_[core_[v].slot];
      if (slot.state.load(std::memory_order_acquire) != kSlotActive || core_[v].crashed) {
        core_[v].timer_watched = 0;  // retired/sealed slot or dead rank: stale
        continue;
      }
      auto& timers = timers_[v];
      if (fire_due_timers(slot, core_[v].rank, timers, pass_now)) {
        any = true;
        activate(shard, v);  // the handler may have queued sends
      }
      if (has_pending(timers)) {
        shard.timer_watch[keep++] = static_cast<Rank>(v);
      } else {
        core_[v].timer_watched = 0;
      }
    }
    shard.timer_watch.resize(keep);
    return any;
  }

  static bool has_pending(const std::vector<Timer>& timers) {
    return std::any_of(timers.begin(), timers.end(),
                       [](const Timer& timer) { return !timer.fired; });
  }

  /// Triggers due scheduled chaos crashes — these must fire even for ranks
  /// with no queue entry, or an idle victim would survive and the
  /// completion countdown would hang on it.
  bool scan_crash_watch(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (const Rank entry : shard.crash_watch) {
      const auto v = static_cast<std::size_t>(entry);
      Slot& slot = slots_[core_[v].slot];
      if (slot.state.load(std::memory_order_acquire) != kSlotActive) continue;
      if (core_[v].crashed) continue;  // a send-budget crash already took it
      if (pass_now >= core_[v].crash_at_ns) {
        crash_rank(slot, v);
        any = true;
        continue;
      }
      shard.crash_watch[keep++] = entry;
    }
    shard.crash_watch.resize(keep);
    return any;
  }

  /// Steps one virtual rank: pending receives, then the send queue (on_sent
  /// may extend it; the index loop keeps draining), then due timers, then
  /// the completion check. Completed ranks keep being stepped — remote
  /// protocols may still need their replies — until the slot retires.
  bool step_rank(std::size_t s, Shard& shard, std::size_t v, Slot& slot,
                 sim::Time pass_now) {
    if (core_[v].crashed) {
      // A dead rank's fifo still receives traffic: delivery never reads the
      // crash flags, which the coordinator writes while pre-marking a slot
      // that late mail of its previous epoch may still land in. Discard it
      // so the fifo stays bounded.
      Envelope discard;
      while (fifo_[v].pop(discard)) {
      }
      return false;
    }
    if (crash_active_ && core_[v].crash_at_ns >= 0 && pass_now >= core_[v].crash_at_ns) {
      crash_rank(slot, v);
      return true;
    }
    const Rank me = core_[v].rank;
    bool progress = false;

    LocalFifo& fifo = fifo_[v];
    Envelope envelope;
    std::size_t received = 0;
    while (received < kMaxStepReceives && fifo.pop(envelope)) {
      progress = true;
      ++received;
      if (envelope.tag() == slot.tag) {
        slot.protocol->on_receive(slot.context, me, envelope.msg);
      }
    }
    auto& outbox = outbox_[v];
    if (!outbox.empty()) {
      progress = true;
      // Full drain of the entry backlog plus a bounded chained allowance.
      const std::size_t limit = outbox.size() + kMaxChainedSends;
      std::size_t i = 0;
      for (; i < outbox.size() && i < limit; ++i) {
        if (crash_active_ && core_[v].crash_budget >= 0 &&
            core_[v].sends >= core_[v].crash_budget) {
          // Step-count crash: the unsent outbox tail dies with the rank.
          crash_rank(slot, v);
          return true;
        }
        ++core_[v].sends;
        // Delivery reads the envelope in place — deliver/deliver_chaos never
        // touch this rank's outbox. Only on_sent can grow (and reallocate)
        // it, so only the 32-byte message it needs is copied to the stack.
        if (link_active_) {
          deliver_chaos(s, shard, v, slot.epoch, outbox[i], pass_now);
        } else {
          deliver(s, shard, outbox[i]);
        }
        const sim::Message sent = outbox[i].msg;
        slot.protocol->on_sent(slot.context, me, sent);
      }
      if (i == outbox.size()) {
        outbox.clear();
      } else {
        // Chain cap hit: keep the unsent tail for the next pass so receives
        // (and their stop conditions) get a turn first.
        outbox.erase(outbox.begin(), outbox.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }

    auto& timers = timers_[v];
    if (!timers.empty()) {
      progress |= fire_due_timers(slot, me, timers, pass_now);
      // Context::set_timer skips watch registration; cover it here, on
      // the owner thread.
      if (!core_[v].timer_watched && has_pending(timers)) {
        core_[v].timer_watched = 1;
        shard.timer_watch.push_back(static_cast<Rank>(v));
      }
    }

    if (!core_[v].completed && core_[v].colored && outbox.empty()) {
      core_[v].completed = 1;
      core_[v].completion_ns = now();
      credit_completion(slot);
    }
    return progress;
  }

  /// shard(r) = r / chunk_, strength-reduced to one high multiply — this
  /// runs once per delivered message, and the integer divide was measurable
  /// on the single-shard ladder cells.
  std::size_t shard_of(std::size_t rank) const noexcept {
    if (chunk_mul_ == 0) return rank;  // chunk_ == 1
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(rank) * chunk_mul_) >> 64);
  }

  /// Same-shard destinations land directly; other shards' traffic is staged
  /// per destination and flushed at pass end. Failed destinations are
  /// dropped at the source, indistinguishable from success.
  void deliver(std::size_t s, Shard& shard, const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    if (failed_[dst]) return;
    const std::size_t dest_shard = shard_of(dst);
    if (dest_shard == s) {
      land(shard, envelope);
    } else {
      shard.staged[dest_shard].push_back(envelope);
    }
  }

  /// Owner-side arrival: the envelope's epoch picks the slot (a one-slot
  /// window needs no arithmetic); the envelope is queued and its receiver
  /// activated.
  void land(Shard& shard, const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    const std::size_t v =
        window_ == 1 ? dst
                     : slot_of_epoch(envelope.epoch()) * static_cast<std::size_t>(num_procs_) +
                           dst;
    fifo_[v].push(envelope);
    activate(shard, v);
  }

  /// Chaos-audited delivery: consults the plan once per send (the verdict
  /// is a pure hash — no shared RNG state between workers) and drops,
  /// duplicates, delays, or forwards the envelope.
  void deliver_chaos(std::size_t s, Shard& shard, std::size_t v, std::int64_t epoch,
                     const Envelope& envelope, sim::Time pass_now) {
    const ChaosPlan::Verdict verdict =
        chaos_->classify(epoch, envelope.msg.src, core_[v].sends);
    if (verdict.drop) {
      ++dropped_[v];
      return;  // on_sent still fires at the caller: the paper's fail-stop
               // semantics — a lost message is indistinguishable from a
               // delivered one at the sender.
    }
    if (verdict.delay_ns > 0) {
      ++delayed_stat_[v];
      shard.delayed.push_back(Delayed{envelope, pass_now + verdict.delay_ns});
      return;
    }
    deliver(s, shard, envelope);
    if (verdict.duplicate) {
      ++duped_[v];
      deliver(s, shard, envelope);
    }
  }

  /// Forwards chaos-delayed envelopes whose release time has come. The
  /// surviving tail is compacted in place, preserving order.
  bool release_delayed(std::size_t s, Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (Delayed& d : shard.delayed) {
      if (d.release_ns <= pass_now) {
        any = true;
        deliver(s, shard, d.envelope);
      } else {
        shard.delayed[keep++] = d;
      }
    }
    shard.delayed.resize(keep);
    return any;
  }

  /// Kills a rank mid-epoch: its pending work vanishes, but it still
  /// credits the completion countdown so no surviving peer waits on it.
  /// completion_ns stays -1 — the rank never completed, it died.
  void crash_rank(Slot& slot, std::size_t v) {
    core_[v].crashed = 1;
    outbox_[v].clear();
    timers_[v].clear();
    fifo_[v].clear();
    if (!core_[v].completed) {
      core_[v].completed = 1;
      credit_completion(slot);
    }
  }

  /// Batch publish per destination shard with staged traffic — one
  /// send_batch call on the transport (one release store on the pair's
  /// ring) per staged block. A full ring accepts a prefix; the leftover
  /// stays staged in order and is retried next pass, preserving per-sender
  /// FIFO, so the chained-send bound and the epoch deadline hold at any
  /// ring capacity.
  bool flush_staged(std::size_t s, Shard& shard) {
    bool any = false;
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      if (shard.staged[d].empty()) continue;
      any |= shard.staged[d].flush([&](const Envelope* data, std::size_t n) {
        return transport_->send_batch(s, d, data, n);
      });
    }
    return any;
  }

  /// Index loop: on_timer may call set_timer and grow the vector mid-scan.
  bool fire_due_timers(Slot& slot, Rank me, std::vector<Timer>& timers, sim::Time pass_now) {
    bool fired = false;
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (!timers[i].fired && timers[i].when <= pass_now) {
        timers[i].fired = true;
        fired = true;
        slot.protocol->on_timer(slot.context, me, timers[i].id);
      }
    }
    return fired;
  }

  void kick_all_shards() {
    for (std::size_t s = 0; s < shards_.size(); ++s) transport_->kick(s);
  }

  // --- Stream coordinator ---------------------------------------------------

  /// kStaged → kActive for a streamed epoch. In repair mode the admission
  /// boundary first revives ranks whose schedule came due (a fresh-epoch
  /// state transfer — the new protocol instance carries the epoch's full
  /// state, nothing to replay); epochs already in flight keep the
  /// membership they were admitted with.
  void begin_stream_epoch(Slot& slot, const ProtocolFactory& factory) {
    slot.owned = factory();
    slot.rejoined = 0;
    if (repair_) {
      bool changed = stream_membership_dirty_;
      stream_membership_dirty_ = false;
      const sim::Time admit_now = now();
      std::size_t keep = 0;
      for (const StreamDown& down : stream_down_) {
        if (admit_now >= down.revive_at_ns) {
          stream_dead_[static_cast<std::size_t>(down.rank)] = 0;
          ++slot.rejoined;
          changed = true;
        } else {
          stream_down_[keep++] = down;
        }
      }
      stream_down_.resize(keep);
      if (changed) {
        stream_generation_ = (stream_generation_ + 1) & 0xFF;
        ++stream_repairs_;
      }
    }
    launch(slot, *slot.owned, repair_ ? stream_dead_ : failed_, stream_generation_,
           stream_timeout_ns_);
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
    if (keep_rank_state_) rec.rank_state.resize(static_cast<std::size_t>(num_procs_));
    for (Rank r = 0; r < num_procs_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const std::size_t v = slot.base + ri;
      const RankEnd end = end_state(v, ri);
      if (keep_rank_state_) rec.rank_state[ri] = end;
      if (end == RankEnd::kFailedAtStart) {
        // Pre-marked corpse: dead before this epoch was admitted — not a
        // survivor, not a fresh crash.
        if (!failed_[ri]) ++rec.dead_at_start;
        continue;
      }
      rec.messages += core_[v].sends;
      if (end == RankEnd::kCrashed) {
        ++rec.crashed;
        if (repair_ && !stream_dead_[ri]) {
          // Persist the death and draw its revive schedule, keyed by the
          // epoch the rank crashed in (the ChaosPlan determinism contract).
          // Schedules that never fire are not tracked: the rank simply
          // stays in stream_dead_.
          stream_dead_[ri] = 1;
          stream_membership_dirty_ = true;
          const std::int64_t delay = chaos_->revive_after_ns(rec.epoch, r);
          if (delay >= 0) stream_down_.push_back(StreamDown{r, now() + delay});
        }
      } else if (end == RankEnd::kUncolored) {
        ++rec.uncolored;
      }
    }
  }

  Rank num_procs_;
  const std::vector<char>& failed_;
  /// One-shot membership: failed_ plus repair-mode crashes minus revivals
  /// (== failed_ when repair is off), pre-marked into slot 0 at each launch.
  /// Written only between epochs (set_membership). Streams keep their own
  /// admission-time set, stream_dead_.
  std::vector<char> dead_;
  std::int32_t generation_ = 0;
  const bool repair_;
  std::int32_t live_ = 0;  ///< ranks not failed at construction

  std::size_t chunk_ = 1;        // ranks per shard; shard(r) = r / chunk_
  std::uint64_t chunk_mul_ = 0;  // ceil(2^64 / chunk_); 0 when chunk_ == 1
  std::deque<Shard> shards_;
  /// Cross-shard movement, parking and wakeup (DESIGN.md §4j).
  std::unique_ptr<Transport> transport_;

  // Per-virtual-rank state, sized window·P (P until the first stream).
  std::vector<LocalFifo> fifo_;
  std::vector<std::vector<Envelope>> outbox_;
  std::vector<std::vector<Timer>> timers_;
  /// Per-rank hot scalars (see RankCore). Entries are only read/written by
  /// the owning shard while their slot is in flight.
  std::vector<RankCore> core_;

  // Chaos state. crash_active_/link_active_ are latched in open_window
  // (before the start barrier) so the no-chaos hot path costs two
  // branch-on-false per pass; the link-stat arrays are cold relative to
  // RankCore and stay out of its cache line.
  const ChaosPlan* chaos_ = nullptr;
  bool crash_active_ = false;
  bool link_active_ = false;
  std::vector<std::int64_t> dropped_;
  std::vector<std::int64_t> delayed_stat_;
  std::vector<std::int64_t> duped_;

  // Window state, written by the coordinator before the start barrier.
  std::size_t window_ = 1;
  bool one_shot_ = true;
  std::int64_t epoch_ = 0;
  std::array<Slot, kMaxWindow> slots_;
  Clock::time_point epoch_start_{};
  std::atomic<bool> started_{false};
  /// Workers leave the pass loop: the one-shot slot retired, or the stream
  /// coordinator collected its last epoch.
  std::atomic<bool> done_{false};
  Doorbell coordinator_bell_;

  // Stream-side state (coordinator-owned; workers only ever see the
  // per-slot pre-marks published by the kActive release).
  struct StreamDown {
    Rank rank;
    std::int64_t revive_at_ns;  ///< absolute stream time the revive is due
  };
  std::int64_t stream_timeout_ns_ = 0;
  bool keep_rank_state_ = false;
  std::vector<char> stream_dead_;
  std::vector<StreamDown> stream_down_;
  std::int32_t stream_generation_ = 0;
  std::int64_t stream_repairs_ = 0;
  bool stream_membership_dirty_ = false;

  std::barrier<> epoch_barrier_;  // shards + coordinator, twice per run
  std::atomic<bool> shutdown_{false};
  std::vector<std::jthread> threads_;
};

/// Coordinator side of a stream: an admission/collection loop replaces the
/// per-epoch barrier bracket. Epoch base+i always runs in window slot
/// (base+i) mod W, matching the delivery-side slot_of_epoch map. Deadlines
/// are enforced by the workers, as for one-shot epochs.
StreamResult Engine::Sharded::run_stream(const ProtocolFactory& factory,
                                         const StreamOptions& options,
                                         std::int64_t timeout_ns) {
  open_window(static_cast<std::size_t>(options.window), /*one_shot=*/false);
  stream_timeout_ns_ = timeout_ns;
  keep_rank_state_ = options.keep_rank_state;
  stream_generation_ = 0;
  stream_repairs_ = 0;
  if (repair_) {
    // Stream-side membership (DESIGN.md §4i): crashes persist across
    // admissions and revivals rejoin at an admission boundary.
    stream_dead_ = failed_;
    stream_down_.clear();
    stream_membership_dirty_ = false;
  }
  start_clock();
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
    for (std::size_t w = 0; w < window_; ++w) {
      Slot& slot = slots_[w];
      if (slot.state.load(std::memory_order_acquire) != kSlotDone) continue;
      collect_stream_epoch(slot,
                           result.epochs[static_cast<std::size_t>(slot.epoch - base_epoch)]);
      slot.owned.reset();
      slot.state.store(kSlotFree, std::memory_order_release);
      ++collected;
      progress = true;
    }

    // Launch any slot whose staging reset all shards have acked.
    for (std::size_t w = 0; w < window_; ++w) {
      Slot& slot = slots_[w];
      if (slot.state.load(std::memory_order_acquire) != kSlotStaged) continue;
      begin_stream_epoch(slot, factory);
      progress = true;
    }

    // Admit the next epoch once its arrival is due and its slot is free.
    // A full window *blocks* admission (epochs queue, never drop) — that
    // queueing delay is exactly what open-loop sojourn times surface.
    if (admitted < options.epochs) {
      const std::int64_t epoch = base_epoch + admitted;
      Slot& slot = slots_[slot_of_epoch(epoch)];
      const std::int64_t due_ns =
          interval_ns > 0.0
              ? static_cast<std::int64_t>(static_cast<double>(admitted) * interval_ns)
              : 0;
      if ((interval_ns == 0.0 || now() >= due_ns) &&
          slot.state.load(std::memory_order_acquire) == kSlotFree) {
        slot.admitted_ns = now();
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
        for (std::size_t w = 0; w < window_; ++w) {
          const std::uint32_t state = slots_[w].state.load(std::memory_order_acquire);
          if (state == kSlotDone || state == kSlotStaged) return true;
        }
        return false;
      });
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  result.repairs = stream_repairs_;
  epoch_ = base_epoch + options.epochs - 1;

  done_.store(true, std::memory_order_release);
  kick_all_shards();
  epoch_barrier_.arrive_and_wait();  // workers leave shard_loop
  return result;
}

// ---------------------------------------------------------------------------
// Engine facade: validation, membership bookkeeping, timeout resolution.
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
  // the pre-repair behavior. The first effective repair pass compacts over
  // *all* dead ranks (construction failures included).
  dead_ = failed_;
  membership_ = MembershipView::identity(num_procs_);
  sharded_ = std::make_unique<Sharded>(num_procs_, failed_, options_);
}

Engine::~Engine() = default;

std::size_t Engine::worker_threads() const noexcept { return sharded_->worker_threads(); }

void Engine::set_chaos(ChaosPlan plan) {
  chaos_ = std::move(plan);
  sharded_->set_chaos(chaos_.enabled() ? &chaos_ : nullptr);
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
  bool changed = false;
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
  if (!changed) return false;

  generation_ = (generation_ + 1) & 0xFF;  // 8-bit field in the envelope tag
  live_count_ = 0;
  for (const char d : dead_) live_count_ += (d == 0);
  membership_ = MembershipView::over_survivors(dead_, generation_);
  sharded_->set_membership(dead_, generation_);
  return true;
}

EpochResult Engine::run_epoch(sim::Protocol& protocol, std::chrono::nanoseconds timeout) {
  return sharded_->run_epoch(protocol, bounded_timeout(timeout, options_.epoch_deadline));
}

StreamResult Engine::run_stream(const ProtocolFactory& factory,
                                const StreamOptions& options) {
  if (!factory) throw std::invalid_argument("run_stream: factory must be callable");
  if (options.epochs < 1) throw std::invalid_argument("run_stream: epochs must be >= 1");
  if (options.window < 1 || static_cast<std::size_t>(options.window) > kMaxWindow) {
    throw std::invalid_argument("run_stream: window must be in [1, 64]");
  }
  if (options.rate < 0.0) throw std::invalid_argument("run_stream: rate must be >= 0");
  return sharded_->run_stream(factory, options,
                              bounded_timeout(options.epoch_timeout, options_.epoch_deadline));
}

}  // namespace ct::rt
