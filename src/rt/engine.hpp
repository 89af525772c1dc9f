#pragma once
// Message-passing runtime — the repo's stand-in for the MPI cluster of §4.4
// (see DESIGN.md §1, §4c). It drives the very same executor-independent
// Protocol state machines as the LogP simulator, in wall-clock time over
// in-process queues. "Failed" ranks get no execution slot; messages
// addressed to them vanish without feedback — the paper's fault emulation
// ("Processes 'failed' during benchmark initialization and stayed as such
// during the whole benchmark run").
//
// Engine is the in-process runtime: worker threads (default
// hardware_concurrency), each owning a contiguous slice of ranks, drive the
// runtime's one rank stepper (stepper.hpp) over a lock-free SPSC ring per
// ordered shard pair (engine_sharded.cpp). This is the path that reaches
// the paper's 36 864-rank prototype scale. A one-shot epoch and a windowed
// stream run through the same stepper: run_epoch is window slot 0 of a
// one-slot window. exec=rt-udp (udp_engine.hpp) drives the same stepper
// from forked processes over UDP.
//
// An Engine is persistent: it spawns its threads once and then executes a
// sequence of epochs (benchmark iterations). Within an epoch each rank
// records its local completion time (colored + own sends drained) but keeps
// servicing deliveries — remote protocols may still need its replies —
// until every live rank has completed. Per-epoch message envelopes carry the
// epoch number so leftovers of epoch e are discarded in epoch e+1.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rt/chaos.hpp"
#include "rt/membership.hpp"
#include "sim/protocol.hpp"
#include "topology/gaps.hpp"

namespace ct::rt {

using Clock = std::chrono::steady_clock;

/// Builds a fresh protocol instance per epoch (harness iterations, stream
/// admissions).
using ProtocolFactory = std::function<std::unique_ptr<sim::Protocol>()>;

/// How a rank ended an epoch — the per-rank last-state of the degradation
/// report.
enum class RankEnd : std::uint8_t {
  kFailedAtStart,  ///< marked failed at Engine construction (no slot at all)
  kColored,        ///< live survivor, received the broadcast
  kUncolored,      ///< live survivor the protocol failed to reach
  kCrashed,        ///< killed mid-epoch by the ChaosPlan
};

/// Outcome of one epoch (one broadcast execution).
struct EpochResult {
  bool timed_out = false;
  /// Wall time from epoch start until the last live rank completed locally.
  std::int64_t completion_ns = 0;
  /// Per-rank local completion times for ranks live at epoch start (ns
  /// since epoch start); -1 for ranks that never completed (timed out or
  /// crashed mid-epoch).
  std::vector<std::int64_t> rank_completion_ns;
  /// Survivors (live, never crashed) that were never colored. With no
  /// chaos this is the old "live ranks never colored" count. Invariant:
  /// an epoch that did not time out has uncolored_live == 0 — completion
  /// requires every survivor colored.
  std::int32_t uncolored_live = 0;
  std::int64_t total_messages = 0;

  // --- chaos / degradation diagnostics (zeros when no ChaosPlan is set) ---
  std::int32_t crashed_mid_epoch = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_delayed = 0;
  std::int64_t messages_duplicated = 0;
  std::vector<topo::Rank> crashed_ranks;
  std::vector<topo::Rank> uncolored_survivors;
  /// Per-rank last-state, size P (filled for every epoch).
  std::vector<RankEnd> rank_state;
  /// Gap structure of the survivor coloring on the correction ring
  /// (crashed and failed ranks count as uncolored). Populated only for
  /// degraded epochs with at least one colored rank.
  topo::GapStats coloring_gaps;

  /// True when this epoch needed the deadline or left survivors uncolored
  /// — i.e. the result is a degradation report, not a clean measurement.
  bool degraded() const noexcept { return timed_out || uncolored_live > 0; }
};

// --- Streaming broadcast (PR8) ---------------------------------------------
// A stream is a sequence of epochs admitted through a sliding window of W
// concurrently-executing in-flight epochs — the per-epoch barrier bracket of
// run_epoch is replaced by per-epoch completion countdowns, so epoch e+1's
// dissemination overlaps epoch e's correction tail.

struct StreamOptions {
  /// Measured epochs to admit (the whole stream; no separate warmup —
  /// callers wanting warmup run a short throwaway stream first).
  std::int64_t epochs = 64;
  /// Window size W: maximum epochs in flight. 1 = serialized epochs
  /// (admission still follows the arrival process).
  std::int32_t window = 1;
  /// Offered arrival rate in epochs/s. > 0 selects the open-loop mode:
  /// epoch i is *scheduled* at i/rate; if the window is full it queues
  /// (blocks) — epochs are never dropped, so sojourn time (retire −
  /// scheduled) surfaces the queueing delay. 0 = closed loop: each epoch
  /// is scheduled the moment a window slot frees up.
  double rate = 0.0;
  /// Per-epoch deadline, measured from the epoch's begin. A stuck epoch is
  /// force-retired (timed_out) so the stream always terminates.
  std::chrono::nanoseconds epoch_timeout = std::chrono::seconds(10);
  /// Record per-rank end states per epoch (parity tests); off for
  /// benchmarks — it is W·P extra copying per epoch.
  bool keep_rank_state = false;
};

/// Outcome of one streamed epoch. All times are ns since stream start.
struct StreamEpoch {
  std::int64_t epoch = 0;          ///< engine-wide epoch tag
  std::int64_t scheduled_ns = 0;   ///< arrival per the offered-rate process
  std::int64_t admitted_ns = 0;    ///< when a window slot accepted it
  std::int64_t begin_ns = 0;       ///< when Protocol::begin ran
  std::int64_t retire_ns = 0;      ///< last live rank completed (or deadline)
  bool timed_out = false;
  std::int32_t crashed = 0;        ///< mid-epoch chaos crashes
  std::int32_t uncolored = 0;      ///< live survivors never colored
  std::int32_t colored = 0;        ///< live survivors colored (deliveries)
  std::int64_t messages = 0;
  /// Repair mode only: ranks already dead in the engine's membership
  /// (persisted crashes, from this stream or an earlier epoch) when this
  /// epoch was admitted — excluded from the live set, not survivors and not
  /// counted in `crashed`/`uncolored`.
  std::int32_t dead_at_start = 0;
  /// Repair mode only: revived ranks that rejoined at this admission (each
  /// one a fresh-epoch state transfer, whatever its outage: overlapping
  /// in-flight epochs leave nothing well-defined to replay).
  std::int32_t rejoined = 0;
  std::vector<RankEnd> rank_state;  ///< filled only with keep_rank_state

  /// Open-loop sojourn: queueing delay + service time.
  std::int64_t sojourn_ns() const noexcept { return retire_ns - scheduled_ns; }
  std::int64_t service_ns() const noexcept { return retire_ns - begin_ns; }
  bool degraded() const noexcept { return timed_out || uncolored > 0; }
};

struct StreamResult {
  std::vector<StreamEpoch> epochs;  ///< in admission order
  double wall_seconds = 0.0;        ///< first admission wait to last retire collection
  /// Repair mode only: admissions whose Engine::heal changed the membership
  /// (deaths persisted and/or ranks revived) and bumped the generation.
  std::int64_t repairs = 0;
};

/// What one Engine::heal boundary changed.
struct HealResult {
  bool repaired = false;  ///< the generation was bumped (once)
  /// Per revived rank: engine epochs from its crash epoch through the last
  /// admitted one (rejoin_replays() picks replay or state transfer).
  std::vector<std::int64_t> outages;
};

struct EngineOptions {
  /// Worker (= shard) count; <= 0 means hardware_concurrency.
  /// Clamped to the rank count (no empty shards) and to an oversubscription
  /// cap of max(16, 8 × hardware_concurrency()) — past that, extra shards
  /// only grow the S² ring mesh and timeshare a fixed core budget.
  int workers = 0;
  /// Per-ordered-pair ring capacity in envelopes, rounded up to a power of
  /// two. Mesh memory is S² × capacity × sizeof(Envelope); backpressure
  /// (staged retry) keeps any capacity correct, so small rings are safe.
  /// Must be >= 1 (the constructor rejects 0).
  std::size_t mesh_capacity = 1024;
  /// Self-healing membership (DESIGN.md §4i). Chaos crashes become
  /// *persistent*: a rank killed mid-epoch, in a one-shot epoch or a
  /// stream, joins the Engine's one dead set and stays dead across epochs
  /// until revived. Engine::heal revives due ranks and rebuilds the
  /// membership at epoch boundaries (measure_recovery before every epoch,
  /// run_stream at every admission). Off by default — without it every
  /// epoch starts from the constructed failure set.
  bool repair = false;
};

class Engine {
 public:
  /// `failed[r] != 0` marks rank r as crashed for the engine's lifetime.
  /// Rank 0 must be alive (it roots every collective).
  Engine(topo::Rank num_procs, std::vector<char> failed, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  topo::Rank num_procs() const noexcept { return num_procs_; }
  topo::Rank live_count() const noexcept { return live_count_; }
  /// Worker (shard) threads the executor runs.
  std::size_t worker_threads() const noexcept;

  /// Executes one epoch of `protocol` (freshly constructed by the caller)
  /// and returns its timing. Serializes epochs internally. `timeout` is the
  /// epoch's only deadline (<= 0 = none): an epoch still running when it
  /// expires is force-retired, and the EpochResult is its degradation
  /// report (timed_out, uncolored survivors, crashed ranks, gap structure)
  /// instead of a hang.
  EpochResult run_epoch(sim::Protocol& protocol, std::chrono::nanoseconds timeout);

  /// Runs a windowed epoch stream (see StreamOptions). Serializes with
  /// run_epoch — never call both concurrently. In repair mode every
  /// admission heals, and the stream starts from the engine's dead set and
  /// generation.
  StreamResult run_stream(const ProtocolFactory& factory, const StreamOptions& options);

  /// Installs (or, with a default-constructed plan, removes) a fault-
  /// injection plan. Applies to subsequent epochs; must not be called
  /// while an epoch is running. With no plan the injection hooks compile
  /// down to a per-pass branch on two cached bools.
  void set_chaos(ChaosPlan plan);
  const ChaosPlan& chaos() const noexcept { return chaos_; }

  // --- Self-healing membership (EngineOptions::repair; DESIGN.md §4i) ----
  // The Engine owns the one membership: dead set, generation, revivals.
  // Every mid-epoch crash is persisted as its epoch retires and pre-marks
  // every later launch; the generation and view change only at a boundary.

  /// The epoch boundary. Revives every persisted crash whose
  /// ChaosPlan::revive_after_ns delay (drawn for its crash epoch) has run
  /// out, then bumps the generation once if that or a persisted crash
  /// changed the membership. measure_recovery calls it before every epoch,
  /// run_stream at every admission. Must not be called during an epoch.
  HealResult heal();

  /// Explicit repair pass. Marks `newly_dead` (global ranks) as
  /// persistently dead and revives `revived` ranks (chaos-crashed only —
  /// ranks failed at construction have no execution slot), dropping their
  /// pending revivals. Bumps the generation if that or a persisted crash
  /// changed the membership; returns false otherwise. Must not be called
  /// during an epoch; throws std::logic_error unless EngineOptions::repair is set,
  /// std::invalid_argument for rank 0, out-of-range or construction-failed
  /// revivals.
  bool repair_membership(const std::vector<topo::Rank>& newly_dead,
                         const std::vector<topo::Rank>& revived);

  /// Current global->dense survivor mapping (identity until the first
  /// generation bump).
  const MembershipView& membership() const noexcept { return membership_; }
  std::int32_t generation() const noexcept { return generation_; }
  /// True when `r` holds no execution slot in later epochs (failed at
  /// construction, or a persisted crash not yet revived).
  bool is_dead(topo::Rank r) const {
    return dead_[static_cast<std::size_t>(r)] != 0;
  }

 private:
  /// Persists a crash of `r` in engine epoch `epoch` (once, even when two
  /// overlapping stream epochs saw it) and schedules its revival.
  void persist_crash(topo::Rank r, std::int64_t epoch);
  /// Bumps the 8-bit generation and recomputes the survivor view.
  void bump_generation();

  topo::Rank num_procs_;
  std::vector<char> failed_;
  EngineOptions options_;
  topo::Rank live_count_ = 0;  ///< live ranks of membership_
  ChaosPlan chaos_;
  /// Repair mode: the persistent dead set (failed_ plus persisted chaos
  /// crashes minus revivals); equals failed_ when repair is off. Every
  /// launch, one-shot or streamed, pre-marks it.
  std::vector<char> dead_;
  MembershipView membership_;
  std::int32_t generation_ = 0;
  bool unrepaired_ = false;  ///< crashes persisted since the last bump
  /// Persisted crashes with a revival scheduled (pinned-dead ranks have none).
  struct Down {
    topo::Rank rank;
    std::int64_t crash_epoch;
    Clock::time_point revive_at;
  };
  std::vector<Down> down_;
  class Sharded;  // the executor (engine_sharded.cpp)
  std::unique_ptr<Sharded> sharded_;  // last member: destroyed before the state it references
};

}  // namespace ct::rt
