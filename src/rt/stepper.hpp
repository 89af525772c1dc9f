#pragma once
// The runtime's one rank stepper (DESIGN.md §4c, §4h, §4j): per-rank state
// (RankCore, LocalFifo, outbox, timers) of every window slot, the slot
// sim::Context, step_rank and local delivery, the active-set run queue with
// its timer and crash watches, and the summary of end states into an
// EpochResult. It owns no thread and no loop. Engine::Sharded
// (engine_sharded.cpp) drives it from worker threads over MeshTransport,
// the rt-udp worker (udp_engine.cpp) from one forked process over
// UdpTransport. Between them sits one seam: Driver::slice_complete says
// what a shard's completed slice means (retire the slot, or send DONE and
// keep stepping until END), and each driver writes the loop around pass()
// — what ends it, how long an idle pass parks.
//
// Chunk k of the contiguous rank slices is transport endpoint k. A stepper
// steps and emits traffic for ranks [own_lo, own_hi) only — all of them
// in-process; one slice under rt-udp, where begin() runs in every process.
// Slot w hosts one in-flight epoch, virtual rank v = w·P + r; a one-shot
// epoch is slot 0 of a one-slot window.
//
// Concurrency contract: during an epoch, protocol callbacks for rank `me`
// may only call Context::send/set_timer/mark_colored/set_rank_data for `me`
// itself — cross-rank Context writes are legal only from Protocol::begin(),
// which the driver runs before the slot goes active. Every protocol in
// this repo satisfies this (tests/rt_stress_test.cpp checks it under TSan).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "rt/transport.hpp"

namespace ct::rt {

// Per-rank-step drain bounds. Everything already in the outbox when a step
// begins is drained in full — that backlog is bounded by protocol fan-out
// (tree children, correction distance). What must be capped is the
// *chained* overflow: on_sent may enqueue new sends during the drain
// (checked correction streams ring probes until a stop message arrives
// from the other direction), and following that chain to the end runs O(P)
// sends for one rank in one step — O(P²) envelopes in a single scheduling
// pass at large P, with no receive ever getting a turn to stop it. A small
// chained allowance restores the simulator's pacing, where stops arrive
// after a handful of probes. The receive cap only bounds pass *latency*
// (work is resumed next pass), keeping the epoch deadline responsive.
inline constexpr std::size_t kMaxChainedSends = 4;
inline constexpr std::size_t kMaxStepReceives = 4096;
/// Steps between a pass's in-pass checkpoints (a power of two): publish the
/// staged cross-shard mail, then check the deadline. In the interleaved
/// binomial tree every rank of shard 1 gets its tree message from shard 0,
/// so mail held to the end of an 8,192-rank seed pass left shard 1 idle for
/// that whole pass and then parked shard 0 behind a full 1,024-envelope
/// ring. At 16Ki ranks on two shards this stride cut the rt-bcast p50 by
/// about 40%; a 4,096-step stride kept only about half of that gain.
inline constexpr std::size_t kStepCheckpoint = 1024;
static_assert((kStepCheckpoint & (kStepCheckpoint - 1)) == 0);
/// Largest stream window (StreamOptions::window).
inline constexpr std::size_t kMaxWindow = 64;

/// Window slot states; engine_sharded.cpp documents the handshakes.
enum : std::uint32_t {
  kSlotFree = 0,
  kSlotStaging = 1,
  kSlotStaged = 2,
  kSlotActive = 3,
  kSlotSealing = 4,
  kSlotDone = 5,
};

class Stepper {
 public:
  struct Slot;
  struct Shard;

  class Driver {
   public:
    /// Every rank `shard` seeded for `slot` has completed or crashed. Runs
    /// on the thread stepping `shard`, once per shard and slot epoch.
    virtual void slice_complete(Shard& shard, Slot& slot) = 0;

   protected:
    ~Driver() = default;
  };

  struct Timer {
    sim::Time when;
    std::int64_t id;
    bool fired = false;
  };

  /// Per-virtual-rank hot scalars, one cache line per rank: everything a
  /// step reads or writes outside the fifo/outbox/timer payloads, including
  /// the rank's identity, so a step costs one cache miss once P outgrows the
  /// L2 (at 16Ki–36Ki ranks those misses dominate the epoch) and no step or
  /// delivery divides by P. alignas(64) also makes the line owner-exclusive:
  /// no false sharing across a shard boundary.
  struct alignas(64) RankCore {
    std::int64_t sends = 0;
    std::int64_t rank_data = 0;
    std::int64_t completion_ns = -1;
    std::int64_t crash_at_ns = -1;
    topo::Rank rank = 0;     // identity: v = slot·P + rank
    std::uint8_t slot = 0;
    char colored = 0;
    char completed = 0;
    /// Crashed mid-epoch, or dead when the slot's epoch was admitted. A
    /// crashed rank's mail is discarded when it is next stepped.
    char crashed = 0;
    char queued = 0;         // rank is in its shard's run_queue
    char timer_watched = 0;  // rank is on its shard's timer_watch
    /// Repair mode: already persistently dead when the slot's epoch was
    /// admitted (pre-marked crashed + completed at launch) — collection
    /// reports it as failed-at-start, not as a mid-epoch crash.
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

  /// The stepping state of transport endpoint `id`'s rank slice [lo, hi),
  /// touched only by the thread that steps it. live_ranks caches the slice
  /// minus construction failures.
  struct Shard {
    Shard(std::size_t id_in, std::size_t chunk, const std::vector<char>& failed,
          std::size_t endpoints)
        : id(id_in),
          lo(static_cast<topo::Rank>(id * chunk)),
          hi(static_cast<topo::Rank>(std::min(failed.size(), (id + 1) * chunk))),
          staged(endpoints) {
      for (topo::Rank r = lo; r < hi; ++r) {
        if (!failed[static_cast<std::size_t>(r)]) live_ranks.push_back(r);
      }
      reset();
    }

    void reset() {
      for (StagedQueue& queue : staged) queue.clear();
      delayed.clear();
      run_queue.clear();
      run_head = 0;
      timer_watch.clear();
      crash_watch.clear();
      staged_epoch.fill(-1);
      seeded_epoch.fill(-1);
      sealed_epoch.fill(-1);
    }

    std::size_t id;
    topo::Rank lo;
    topo::Rank hi;
    std::vector<topo::Rank> live_ranks;
    std::vector<StagedQueue> staged;  // outgoing, per destination endpoint
    std::vector<Delayed> delayed;     // chaos-delayed, awaiting release

    // Active-set scheduler over virtual ranks. run_queue is a FIFO with a
    // consumed prefix [0, run_head); RankCore::queued keeps membership O(1).
    std::vector<topo::Rank> run_queue;
    std::size_t run_head = 0;
    std::vector<topo::Rank> timer_watch;  // ranks with >= 1 unfired timer
    std::vector<topo::Rank> crash_watch;  // ranks with a scheduled chaos crash

    /// Per slot: seeded ranks of this slice not yet completed or crashed.
    std::array<std::int32_t, kMaxWindow> pending{};
    // The epoch this shard last staged, seeded and sealed per window slot —
    // comparing against it makes each handshake phase idempotent per pass
    // without extra atomics. A shard steps a slot only once it seeded it.
    std::array<std::int64_t, kMaxWindow> staged_epoch{};
    std::array<std::int64_t, kMaxWindow> seeded_epoch{};
    std::array<std::int64_t, kMaxWindow> sealed_epoch{};
  };

  /// The sim::Context facade of one window slot: rank r translates to
  /// virtual rank slot·P + r, and sends are stamped with the slot's tag.
  class Context final : public sim::Context {
   public:
    void bind(Stepper& stepper, const Slot& slot) {
      stepper_ = &stepper;
      slot_ = &slot;
    }

    sim::Time now() const override { return stepper_->now(); }
    topo::Rank num_procs() const override { return stepper_->num_procs_; }

    void send(topo::Rank from, topo::Rank to, sim::Tag tag, std::int64_t payload) override {
      // Queued on the sender's outbox; the shard stepping `from` delivers it
      // and then runs the on_sent callback. Only the owner keeps a rank's
      // traffic (begin() runs in every rt-udp process).
      if (!stepper_->owns(from)) return;
      const std::size_t v = vindex(from);
      stepper_->outbox_[v].push_back(Envelope{
          sim::Message{.src = from, .dst = to, .tag = tag, .payload = payload,
                       .data = stepper_->core_[v].rank_data},
          slot_->tag});
    }
    void set_rank_data(topo::Rank r, std::int64_t data) override {
      stepper_->core_[vindex(r)].rank_data = data;
    }
    std::int64_t rank_data(topo::Rank r) const override {
      return stepper_->core_[vindex(r)].rank_data;
    }
    void set_timer(topo::Rank on, sim::Time when, std::int64_t id) override {
      // No watch registration here: the caller may be the coordinator
      // running begin() while workers run other slots, and only the owning
      // shard may touch its watch lists. step_rank registers pending timers
      // on the owner thread, and seeding steps every live rank once.
      if (!stepper_->owns(on)) return;
      stepper_->timers_[vindex(on)].push_back({when, id, false});
    }
    void mark_colored(topo::Rank r) override { stepper_->core_[vindex(r)].colored = 1; }
    bool is_colored(topo::Rank r) const override {
      return stepper_->core_[vindex(r)].colored != 0;
    }
    void note_correction_start() override {}  // gap snapshot: a sim-only metric

   private:
    std::size_t vindex(topo::Rank r) const noexcept {
      return slot_->base + static_cast<std::size_t>(r);
    }

    Stepper* stepper_ = nullptr;
    const Slot* slot_ = nullptr;
  };

  struct Slot {
    // Read-mostly line: written by the driver before the kActive release,
    // read by every step and send.
    alignas(64) std::atomic<std::uint32_t> state{kSlotFree};
    std::int32_t tag = 0;  // Envelope::make_tag(epoch, generation)
    std::size_t base = 0;  // virtual rank of rank 0
    sim::Protocol* protocol = nullptr;
    std::int64_t epoch = -1;
    std::int64_t begin_ns = 0;
    std::int64_t deadline_ns = 0;  // absolute engine time; 0 = none
    Context context;

    // Engine::Sharded's handshake and coordinator fields (rt-udp runs
    // one-shot epochs in lockstep and leaves them unused). Contended line:
    // the completion countdown (one credit per shard) and the handshake acks.
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
    std::int32_t rejoined = 0;  // repair mode: revivals joining this epoch
    std::unique_ptr<sim::Protocol> owned;  // stream slots own their protocol
  };

  /// `chunk` ranks per transport endpoint; steps and emits traffic for
  /// ranks [own_lo, own_hi) only.
  Stepper(topo::Rank num_procs, const std::vector<char>& failed, std::size_t chunk,
          topo::Rank own_lo, topo::Rank own_hi, Transport& transport, Driver& driver)
      : num_procs_(num_procs),
        failed_(failed),
        own_lo_(own_lo),
        own_hi_(own_hi),
        // Round-up reciprocal for the delivery path's shard lookup: exact
        // for every rank and chunk below 2^32 (rank·e < 2^64 in the usual
        // round-up bound). chunk == 1 wraps it to 0; shard_of branches.
        chunk_mul_(~std::uint64_t{0} / chunk + 1),
        transport_(transport),
        driver_(driver) {
    for (std::size_t w = 0; w < kMaxWindow; ++w) {
      slots_[w].base = w * static_cast<std::size_t>(num_procs_);
      slots_[w].context.bind(*this, slots_[w]);
    }
    open_window(1);
  }

  std::size_t window() const noexcept { return window_; }
  Slot& slot(std::size_t w) noexcept { return slots_[w]; }

  /// Engine time in ns since start_clock; 0 while the clock is stopped.
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

  /// Installs the fault-injection plan (nullptr disables it) from the next
  /// open_window on. Crash verdicts always apply per rank; message-level
  /// link verdicts only with `link_verdicts` — rt-udp draws them per
  /// datagram inside UdpTransport, below perfect links, instead.
  void set_chaos(const ChaosPlan* plan, bool link_verdicts) {
    chaos_ = plan;
    link_verdicts_ = link_verdicts;
  }

  /// Sizes the rank arrays for `window` slots, frees every slot, latches
  /// the chaos hooks (so the no-chaos hot path costs two branch-on-false
  /// per pass) and stops the clock. Runs with no pass in flight.
  void open_window(std::size_t window) {
    window_ = window;
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
    link_active_ = chaos_ != nullptr && link_verdicts_ && chaos_->links_enabled();
    for (std::size_t w = 0; w < window; ++w) {
      slots_[w].state.store(kSlotFree, std::memory_order_relaxed);
    }
    started_.store(false, std::memory_order_release);
  }

  /// Resets ranks [lo, hi) of slot `w` for the slot's epoch — their fifos
  /// may hold stale mail — and drops `shard`'s watch entries of that slot.
  void stage(Shard& shard, std::size_t w, topo::Rank lo, topo::Rank hi) {
    const Slot& slot = slots_[w];
    shard.staged_epoch[w] = slot.epoch;
    for (topo::Rank r = lo; r < hi; ++r) {
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
    for (std::vector<topo::Rank>* list : {&shard.timer_watch, &shard.crash_watch}) {
      std::erase_if(*list, [&](topo::Rank v) {
        return core_[static_cast<std::size_t>(v)].slot == w;
      });
    }
  }

  /// Pre-marks the slot's dead ranks (`dead`, nullptr = construction
  /// failures only) crashed and completed — they hold no execution slot in
  /// this epoch, and their mail is discarded like a crashed rank's — draws
  /// the chaos crash schedules, runs begin() and releases the slot as
  /// kActive. The caller owns the slot until that release.
  void launch(Slot& slot, sim::Protocol& protocol, const std::vector<char>* dead,
              std::int32_t generation, std::int64_t timeout_ns) {
    slot.protocol = &protocol;
    slot.begin_ns = now();
    slot.deadline_ns = timeout_ns > 0 ? slot.begin_ns + timeout_ns : 0;
    slot.tag = Envelope::make_tag(slot.epoch, generation);
    if (dead != nullptr || crash_active_) {
      for (topo::Rank r = 0; r < num_procs_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (failed_[ri]) continue;
        RankCore& core = core_[slot.base + ri];
        if (dead != nullptr && (*dead)[ri]) {
          core.dead_at_start = 1;
          core.crashed = 1;
          core.completed = 1;
        } else if (crash_active_) {
          const std::int64_t at = chaos_->crash_ns(slot.epoch, r);
          core.crash_at_ns = at >= 0 ? slot.begin_ns + at : -1;
        }
      }
    }
    protocol.begin(slot.context);
    slot.state.store(kSlotActive, std::memory_order_release);
  }

  /// `shard` takes on slot `w`'s epoch: arms the run queue, the crash watch
  /// and the slice's completion countdown. Every live rank is stepped once,
  /// so begin()-time outboxes, timers and coloring are noticed even if no
  /// mail ever arrives. The sweep is ascending over every live rank on
  /// purpose: a parent in the interleaved binomial tree has the lower rank,
  /// so one pass colors the shard's part of the tree while reading rank
  /// state in order. Seeding only the ranks begin() touched measured a 2.5×
  /// higher p50 at 16Ki ranks on two shards.
  void seed(Shard& shard, std::size_t w) {
    const Slot& slot = slots_[w];
    shard.seeded_epoch[w] = shard.staged_epoch[w];
    std::int32_t pending = 0;
    for (const topo::Rank r : shard.live_ranks) {
      const std::size_t v = slot.base + static_cast<std::size_t>(r);
      if (core_[v].dead_at_start) continue;
      ++pending;
      activate(shard, v);
      if (crash_active_ && core_[v].crash_at_ns >= 0) {
        shard.crash_watch.push_back(static_cast<topo::Rank>(v));
      }
    }
    shard.pending[w] = pending;
    if (pending == 0) driver_.slice_complete(shard, slots_[w]);
  }

  /// Claims `shard`'s pending transport mail in one batch and lands it.
  /// Envelopes go straight from the transport into the destination fifo
  /// through the sink (one 32-byte copy plus a predicted indirect call); the
  /// poll itself is one virtual call per pass.
  bool drain(Shard& shard) {
    auto sink = [&](const Envelope& envelope) { land(shard, envelope); };
    return transport_.poll_into(shard.id, EnvelopeSink(sink)) > 0;
  }

  /// Owner-side arrival: the envelope's epoch picks the slot (a one-slot
  /// window needs no arithmetic); the envelope is queued and its receiver
  /// activated.
  void land(Shard& shard, const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    const std::size_t v =
        window_ == 1 ? dst
                     : static_cast<std::size_t>(envelope.epoch()) % window_ *
                               static_cast<std::size_t>(num_procs_) +
                           dst;
    fifo_[v].push(envelope);
    activate(shard, v);
  }

  /// One scheduling pass's shared body: delayed release, crash watch, timer
  /// watch, bounded stepping of the active set with a checkpoint every
  /// kStepCheckpoint steps, staged flush. `deadline` (engine time, 0 =
  /// none) is checked at each checkpoint; it cuts the step loop short and
  /// sets `expired`. Returns whether the pass made progress.
  bool pass(Shard& shard, sim::Time deadline, bool& expired) {
    // Per-pass step bound: an activation cascade (each step re-arming the
    // ranks it delivered to) may otherwise run arbitrarily long before the
    // next drain. A full slice's worth per slot keeps the pass no heavier
    // than a sweep; leftovers stay queued. Peers need not wait that long
    // for their mail: the in-pass checkpoint publishes it every
    // kStepCheckpoint steps.
    const std::size_t step_budget =
        std::max<std::size_t>(shard.live_ranks.size() * window_, 1024);
    bool progress = false;
    const sim::Time pass_now = now();
    if (link_active_ && !shard.delayed.empty()) {
      progress |= release_delayed(shard, pass_now);
    }
    if (crash_active_ && !shard.crash_watch.empty()) {
      progress |= scan_crash_watch(shard, pass_now);
    }
    if (!shard.timer_watch.empty()) {
      progress |= scan_timer_watch(shard, pass_now);
    }

    expired = deadline > 0 && pass_now > deadline;
    std::size_t stepped = 0;
    while (shard.run_head < shard.run_queue.size() && stepped < step_budget) {
      const auto v = static_cast<std::size_t>(shard.run_queue[shard.run_head++]);
      core_[v].queued = 0;
      ++stepped;
      const std::size_t w = core_[v].slot;
      Slot& slot = slots_[w];
      // Stale entry (slot retired in an earlier pass, restaged since
      // queueing, or not yet seeded here): skip without re-arming.
      if (!steppable(shard, w, slot.state.load(std::memory_order_acquire))) continue;
      progress |= step_rank(shard, v, slot, pass_now);
      // Receive/chained-send caps can leave backlog behind; re-arm so the
      // rank resumes without waiting for fresh mail.
      if (!fifo_[v].empty() || !outbox_[v].empty()) activate(shard, v);
      // In-pass checkpoint. Staged cross-shard mail goes out now, so other
      // shards start on it while this pass runs on. Then the deadline: a
      // pass can outlive it by itself (thousands of active ranks, each
      // draining capped-but-real backlogs).
      if ((stepped & (kStepCheckpoint - 1)) == 0) {
        progress |= flush_staged(shard);
        if (deadline > 0 && now() > deadline) {
          expired = true;
          break;
        }
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

    progress |= flush_staged(shard);
    return progress;
  }

  /// May `shard` step ranks of slot `w`? Once it seeded the slot's epoch,
  /// while the slot is active, and for the rest of the pass in which it
  /// retired: a shard stops only when it acks the seal at its next pass
  /// start — or, for a one-shot epoch, when its driver leaves the loop.
  static bool steppable(const Shard& shard, std::size_t w, std::uint32_t state) {
    const std::int64_t epoch = shard.staged_epoch[w];
    if (shard.seeded_epoch[w] != epoch) return false;
    return state == kSlotActive ||
           (state == kSlotSealing && shard.sealed_epoch[w] != epoch);
  }

  /// How virtual rank `v` (global rank `r`) ended its slot's epoch.
  RankEnd end_state(std::size_t v, std::size_t r) const {
    const RankCore& core = core_[v];
    if (failed_[r] || core.dead_at_start) return RankEnd::kFailedAtStart;
    if (core.crashed) return RankEnd::kCrashed;
    return core.colored ? RankEnd::kColored : RankEnd::kUncolored;
  }
  std::int64_t sends(std::size_t v) const noexcept { return core_[v].sends; }

  /// Adds ranks [lo, hi) of `slot` to `result`: end states (rank_state is
  /// sized P), sends, completion times and link-chaos tallies.
  /// summarize_ranks finishes the result.
  void collect(const Slot& slot, topo::Rank lo, topo::Rank hi, EpochResult& result) const {
    result.rank_state.resize(static_cast<std::size_t>(num_procs_));
    result.rank_completion_ns.reserve(static_cast<std::size_t>(hi - lo));
    for (topo::Rank r = lo; r < hi; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const std::size_t v = slot.base + ri;
      const RankEnd end = end_state(v, ri);
      result.rank_state[ri] = end;
      // Failed at construction or persistently dead under repair mode:
      // either way the rank held no execution slot this epoch, so it is not
      // a survivor and cannot degrade the epoch.
      if (end == RankEnd::kFailedAtStart) continue;
      const RankCore& core = core_[v];
      result.total_messages += core.sends;
      result.rank_completion_ns.push_back(core.completion_ns);
      result.completion_ns = std::max(result.completion_ns, core.completion_ns);
    }
    if (!link_active_) return;
    for (std::size_t v = slot.base + static_cast<std::size_t>(lo);
         v < slot.base + static_cast<std::size_t>(hi); ++v) {
      result.messages_dropped += dropped_[v];
      result.messages_delayed += delayed_stat_[v];
      result.messages_duplicated += duped_[v];
    }
  }

 private:
  bool owns(topo::Rank r) const noexcept { return r >= own_lo_ && r < own_hi_; }

  void activate(Shard& shard, std::size_t v) {
    if (!core_[v].queued) {
      core_[v].queued = 1;
      shard.run_queue.push_back(static_cast<topo::Rank>(v));
    }
  }

  static bool has_pending(const std::vector<Timer>& timers) {
    return std::any_of(timers.begin(), timers.end(),
                       [](const Timer& timer) { return !timer.fired; });
  }

  /// Steps one virtual rank: pending receives, then the send queue (on_sent
  /// may extend it; the index loop keeps draining), then due timers, then
  /// the completion check. Completed ranks keep being stepped — remote
  /// protocols may still need their replies — until the driver stops.
  bool step_rank(Shard& shard, std::size_t v, Slot& slot, sim::Time pass_now) {
    if (core_[v].crashed) {
      // A dead rank's fifo still receives traffic: delivery never reads the
      // crash flags, which launch writes while pre-marking a slot that late
      // mail of its previous epoch may still land in. Discard it so the
      // fifo stays bounded.
      Envelope discard;
      while (fifo_[v].pop(discard)) {
      }
      return false;
    }
    if (crash_active_ && core_[v].crash_at_ns >= 0 && pass_now >= core_[v].crash_at_ns) {
      crash_rank(shard, v);
      return true;
    }
    const topo::Rank me = core_[v].rank;
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
        ++core_[v].sends;
        // Delivery reads the envelope in place — deliver/deliver_chaos never
        // touch this rank's outbox. Only on_sent can grow (and reallocate)
        // it, so only the 32-byte message it needs is copied to the stack.
        if (link_active_) {
          deliver_chaos(shard, v, slot.epoch, outbox[i], pass_now);
        } else {
          deliver(shard, outbox[i]);
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
      // Context::set_timer skips watch registration; cover it here, on the
      // owner thread.
      if (!core_[v].timer_watched && has_pending(timers)) {
        core_[v].timer_watched = 1;
        shard.timer_watch.push_back(static_cast<topo::Rank>(v));
      }
    }

    if (!core_[v].completed && core_[v].colored && outbox.empty()) {
      core_[v].completed = 1;
      core_[v].completion_ns = now();
      credit(shard, v);
    }
    return progress;
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
        shard.timer_watch[keep++] = static_cast<topo::Rank>(v);
      } else {
        core_[v].timer_watched = 0;
      }
    }
    shard.timer_watch.resize(keep);
    return any;
  }

  /// Triggers due scheduled chaos crashes — these must fire even for ranks
  /// with no queue entry, or an idle victim would survive and the
  /// completion countdown would hang on it.
  bool scan_crash_watch(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (const topo::Rank entry : shard.crash_watch) {
      const auto v = static_cast<std::size_t>(entry);
      if (slots_[core_[v].slot].state.load(std::memory_order_acquire) != kSlotActive) {
        continue;
      }
      if (core_[v].crashed) continue;  // step_rank already crashed it
      if (pass_now >= core_[v].crash_at_ns) {
        crash_rank(shard, v);
        any = true;
        continue;
      }
      shard.crash_watch[keep++] = entry;
    }
    shard.crash_watch.resize(keep);
    return any;
  }

  /// shard(r) = r / chunk, strength-reduced to one high multiply — this
  /// runs once per delivered message, and the integer divide was measurable
  /// on the single-shard ladder cells.
  std::size_t shard_of(std::size_t rank) const noexcept {
    if (chunk_mul_ == 0) return rank;  // chunk == 1
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::size_t>((static_cast<u128>(rank) * chunk_mul_) >> 64);
  }

  /// Same-shard destinations land directly; other endpoints' traffic is
  /// staged per destination and flushed at the pass's next checkpoint or
  /// its end. Failed destinations are dropped at the source,
  /// indistinguishable from success; mid-epoch crashes are invisible here —
  /// the owner discards on the rank's behalf.
  void deliver(Shard& shard, const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    if (failed_[dst]) return;
    const std::size_t dest = shard_of(dst);
    if (dest == shard.id) {
      land(shard, envelope);
    } else {
      shard.staged[dest].push_back(envelope);
    }
  }

  /// Chaos-audited delivery: consults the plan once per send (the verdict
  /// is a pure hash — no shared RNG state between workers) and drops,
  /// duplicates, delays, or forwards the envelope.
  void deliver_chaos(Shard& shard, std::size_t v, std::int64_t epoch,
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
    deliver(shard, envelope);
    if (verdict.duplicate) {
      ++duped_[v];
      deliver(shard, envelope);
    }
  }

  /// Forwards chaos-delayed envelopes whose release time has come. The
  /// surviving tail is compacted in place, preserving order.
  bool release_delayed(Shard& shard, sim::Time pass_now) {
    bool any = false;
    std::size_t keep = 0;
    for (Delayed& d : shard.delayed) {
      if (d.release_ns <= pass_now) {
        any = true;
        deliver(shard, d.envelope);
      } else {
        shard.delayed[keep++] = d;
      }
    }
    shard.delayed.resize(keep);
    return any;
  }

  /// Kills a rank mid-epoch: its pending work vanishes, but it still
  /// credits its slice's countdown so no surviving peer waits on it.
  /// completion_ns stays -1 — the rank never completed, it died.
  void crash_rank(Shard& shard, std::size_t v) {
    core_[v].crashed = 1;
    outbox_[v].clear();
    timers_[v].clear();
    fifo_[v].clear();
    if (!core_[v].completed) {
      core_[v].completed = 1;
      credit(shard, v);
    }
  }

  /// Completion credit for one seeded rank; the slice's last one hands the
  /// slot to the driver.
  void credit(Shard& shard, std::size_t v) {
    const std::size_t w = core_[v].slot;
    if (--shard.pending[w] == 0) driver_.slice_complete(shard, slots_[w]);
  }

  /// Batch publish per destination with staged traffic — one send_batch
  /// call on the transport per staged block. A bounded transport accepts a
  /// prefix; the leftover stays staged in order and is retried at the next
  /// checkpoint or pass end, preserving per-sender FIFO, so the chained-send
  /// bound and the epoch deadline hold at any ring capacity.
  bool flush_staged(Shard& shard) {
    bool any = false;
    for (std::size_t d = 0; d < shard.staged.size(); ++d) {
      if (shard.staged[d].empty()) continue;
      any |= shard.staged[d].flush([&](const Envelope* data, std::size_t n) {
        return transport_.send_batch(shard.id, d, data, n);
      });
    }
    return any;
  }

  /// Index loop: on_timer may call set_timer and grow the vector mid-scan.
  bool fire_due_timers(Slot& slot, topo::Rank me, std::vector<Timer>& timers,
                       sim::Time pass_now) {
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

  const topo::Rank num_procs_;
  const std::vector<char>& failed_;
  const topo::Rank own_lo_;
  const topo::Rank own_hi_;
  const std::uint64_t chunk_mul_;  // ceil(2^64 / chunk); 0 when chunk == 1
  Transport& transport_;
  Driver& driver_;

  // Per-virtual-rank state, sized window·P (P until the first stream).
  std::vector<LocalFifo> fifo_;
  std::vector<std::vector<Envelope>> outbox_;
  std::vector<std::vector<Timer>> timers_;
  /// Per-rank hot scalars (see RankCore). Entries are only read/written by
  /// the owning shard while their slot is in flight.
  std::vector<RankCore> core_;

  // Chaos state, latched in open_window. The link-stat arrays are cold
  // relative to RankCore and stay out of its cache line.
  const ChaosPlan* chaos_ = nullptr;
  bool link_verdicts_ = true;
  bool crash_active_ = false;
  bool link_active_ = false;
  std::vector<std::int64_t> dropped_;
  std::vector<std::int64_t> delayed_stat_;
  std::vector<std::int64_t> duped_;

  std::size_t window_ = 1;
  std::array<Slot, kMaxWindow> slots_;
  Clock::time_point epoch_start_{};
  std::atomic<bool> started_{false};
};

struct HarnessResult;

/// Finishes an epoch's rank-level summary from result.rank_state: crashed
/// ranks, uncolored survivors and, for a degraded epoch, the gap structure
/// of the survivor coloring.
void summarize_ranks(EpochResult& result);

/// Folds one measured epoch into `result` — the one EpochResult →
/// HarnessResult accumulation of measure_broadcast, measure_recovery and
/// the rt-udp merge. `latency_ns` is the epoch's completion latency; a
/// timed-out epoch adds none.
void fold_epoch(HarnessResult& result, const EpochResult& epoch, std::int64_t latency_ns,
                topo::Rank num_procs);

}  // namespace ct::rt
