#pragma once
// Self-healing membership for the threaded runtime (DESIGN.md §4i).
//
// A crashed rank used to be a permanent ring gap: the tree and ring are
// built once over [0, P) and the protocol keeps addressing the corpse for
// the rest of the run. MembershipView is the repair pass's mapping between
// the *stable global* rank ids the engine owns (thread/shard slots, chaos
// schedules, degradation reports) and the *dense live* rank space a freshly
// rebuilt tree/ring is laid out over. Protocol state machines stay
// unchanged: they run over dense ranks [0, L) exactly as if the job had
// been launched with L processes, and RemapContext/RemappedProtocol
// translate at the executor boundary.
//
// The Engine owns the one membership (engine.hpp) and changes it only at
// an epoch boundary — between one-shot epochs, or at a stream admission —
// never under an epoch that already launched, so a view is immutable while
// a protocol runs over it and can be shared by reference across workers.
// Each change bumps a generation counter that the engines fold into the
// envelope tag, so in-flight mail from a previous membership is dropped by
// generation, not just by epoch (see rt::Envelope).

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/protocol.hpp"
#include "topology/tree.hpp"

namespace ct::rt {

/// Immutable global-rank <-> dense-live-rank mapping for one membership
/// generation.
class MembershipView {
 public:
  /// Generation 0: everybody lives, global id == dense id.
  static MembershipView identity(topo::Rank num_global);

  /// Compacts the survivors of `dead` (indexed by global rank, size
  /// num_global) into dense ranks [0, live). Detects the all-alive case and
  /// returns an identity view so the no-failure path keeps its unwrapped
  /// protocol.
  static MembershipView over_survivors(const std::vector<char>& dead,
                                       std::int32_t generation);

  topo::Rank num_global() const noexcept { return num_global_; }
  topo::Rank num_live() const noexcept { return num_live_; }
  std::int32_t generation() const noexcept { return generation_; }

  /// True when global id == dense id for every live rank (no dead ranks).
  bool is_identity() const noexcept { return identity_; }

  /// Dense -> global. Precondition: 0 <= dense < num_live().
  topo::Rank global_of(topo::Rank dense) const {
    return identity_ ? dense : live_[static_cast<std::size_t>(dense)];
  }

  /// Global -> dense, or topo::kNoRank when `global` is dead.
  topo::Rank dense_of(topo::Rank global) const {
    return identity_ ? global : dense_[static_cast<std::size_t>(global)];
  }

  bool is_live(topo::Rank global) const {
    return identity_ || dense_[static_cast<std::size_t>(global)] != topo::kNoRank;
  }

  /// Dense-ordered global ids of the survivors (empty for identity views).
  const std::vector<topo::Rank>& live() const noexcept { return live_; }

 private:
  topo::Rank num_global_ = 0;
  topo::Rank num_live_ = 0;
  std::int32_t generation_ = 0;
  bool identity_ = true;
  std::vector<topo::Rank> live_;   ///< dense -> global
  std::vector<topo::Rank> dense_;  ///< global -> dense (kNoRank = dead)
};

/// sim::Context adapter presenting the dense live rank space to a protocol
/// while delegating to the engine's global-rank context. Stateless after
/// bind(): safe to share by const reference across worker threads exactly
/// like the underlying engine context.
class RemapContext final : public sim::Context {
 public:
  explicit RemapContext(const MembershipView& view) : view_(&view) {}

  void bind(sim::Context& inner) { inner_ = &inner; }

  sim::Time now() const override { return inner_->now(); }
  topo::Rank num_procs() const override { return view_->num_live(); }

  void send(topo::Rank from, topo::Rank to, sim::Tag tag,
            std::int64_t payload) override {
    inner_->send(view_->global_of(from), view_->global_of(to), tag, payload);
  }

  void set_timer(topo::Rank on, sim::Time when, std::int64_t id) override {
    inner_->set_timer(view_->global_of(on), when, id);
  }

  void mark_colored(topo::Rank r) override {
    inner_->mark_colored(view_->global_of(r));
  }
  bool is_colored(topo::Rank r) const override {
    return inner_->is_colored(view_->global_of(r));
  }

  void note_correction_start() override { inner_->note_correction_start(); }

  void set_rank_data(topo::Rank r, std::int64_t data) override {
    inner_->set_rank_data(view_->global_of(r), data);
  }
  std::int64_t rank_data(topo::Rank r) const override {
    return inner_->rank_data(view_->global_of(r));
  }

 private:
  const MembershipView* view_;
  sim::Context* inner_ = nullptr;
};

/// Runs an unmodified protocol over the dense survivor space of `view`.
/// The engine keeps calling with global ranks and global-addressed
/// messages; the wrapper translates both ways. Callbacks for dead ranks
/// cannot occur (the engine never steps them), so dense_of() on the `me` /
/// src path always resolves.
class RemappedProtocol final : public sim::Protocol {
 public:
  RemappedProtocol(std::unique_ptr<sim::Protocol> inner,
                   const MembershipView& view)
      : inner_(std::move(inner)), ctx_(view), view_(&view) {}

  void begin(sim::Context& ctx) override {
    ctx_.bind(ctx);
    inner_->begin(ctx_);
  }

  void on_receive(sim::Context& /*ctx*/, topo::Rank me,
                  const sim::Message& msg) override {
    sim::Message dense = msg;
    dense.src = view_->dense_of(msg.src);
    dense.dst = view_->dense_of(msg.dst);
    inner_->on_receive(ctx_, view_->dense_of(me), dense);
  }

  void on_sent(sim::Context& /*ctx*/, topo::Rank me,
               const sim::Message& msg) override {
    sim::Message dense = msg;
    dense.src = view_->dense_of(msg.src);
    dense.dst = view_->dense_of(msg.dst);
    inner_->on_sent(ctx_, view_->dense_of(me), dense);
  }

  void on_timer(sim::Context& /*ctx*/, topo::Rank me, std::int64_t id) override {
    inner_->on_timer(ctx_, view_->dense_of(me), id);
  }

 private:
  std::unique_ptr<sim::Protocol> inner_;
  RemapContext ctx_;
  const MembershipView* view_;
};

/// One-shot rejoin rule (DESIGN.md §4i): senders retain the last
/// kReplayWindow sealed epochs, so an outage (HealResult::outages) that fits
/// replays the missed epochs, and a longer one takes a state transfer.
constexpr std::int64_t kReplayWindow = 64;
constexpr bool rejoin_replays(std::int64_t outage_epochs) noexcept {
  return outage_epochs <= kReplayWindow;
}

}  // namespace ct::rt
