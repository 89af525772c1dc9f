#include "protocol/correction.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ct::proto {

using sim::Message;
using topo::Rank;

void CorrectionEngine::on_timer(sim::Context&, Rank, std::int64_t) {}

std::int64_t CorrectionEngine::signed_offset(Rank me, Rank other) const {
  const std::int64_t right = ring_.distance_right(me, other);
  const std::int64_t left = ring_.distance_left(me, other);
  return (right <= left) ? right : -left;
}

namespace {

// Correction message payload: the signed ring distance the message travelled
// (+k = sender sent k to the right, -k = k to the left). The receiver learns
// which side the sender is on and how far, without the min-distance
// ambiguity of deriving it from ranks on small rings.
std::int64_t probe_payload(std::int64_t signed_distance) { return signed_distance; }

// Reply payload: the original probe's signed distance plus a flag saying
// whether the replier is a dissemination-colored participant. Encoded as
// dist*2 + flag (two's complement keeps the parity trick valid for
// negatives).
std::int64_t reply_payload(std::int64_t probe_distance, bool participant) {
  return probe_distance * 2 + (participant ? 1 : 0);
}
std::int64_t reply_distance(std::int64_t payload) {
  const std::int64_t flag = payload & 1;
  return (payload - flag) / 2;
}
bool reply_participant(std::int64_t payload) { return (payload & 1) != 0; }

/// Epoch-gated view over one of CorrectionScratch's state vectors: binds to
/// the caller's scratch (or a privately owned one), bumps the epoch so every
/// entry from previous runs reads as freshly value-initialised, and lazily
/// re-stamps entries on first touch.
template <class State>
class EngineStates {
 public:
  EngineStates(std::unique_ptr<CorrectionScratch>& owned, CorrectionScratch* scratch,
               std::vector<State> CorrectionScratch::* member, Rank num_procs) {
    store_ = scratch ? scratch : (owned = std::make_unique<CorrectionScratch>()).get();
    epoch_ = ++store_->epoch;
    vec_ = &(store_->*member);
    if (vec_->size() < static_cast<std::size_t>(num_procs)) {
      vec_->resize(static_cast<std::size_t>(num_procs));
    }
  }

  /// New run over the same vector: bump the store epoch so every entry reads
  /// as value-initialised again — exactly what constructing a fresh
  /// EngineStates over this scratch would do.
  void reset() { epoch_ = ++store_->epoch; }

  State& operator[](Rank r) {
    State& s = (*vec_)[static_cast<std::size_t>(r)];
    if (s.epoch != epoch_) {
      s = State{};
      s.epoch = epoch_;
    }
    return s;
  }

 private:
  CorrectionScratch* store_ = nullptr;
  std::vector<State>* vec_ = nullptr;
  std::uint64_t epoch_ = 0;
};

// ---------------------------------------------------------------------------
// Opportunistic correction (plain and optimized, §3.1 + §3.3).
// ---------------------------------------------------------------------------

class OpportunisticEngine final : public CorrectionEngine {
 public:
  OpportunisticEngine(Rank num_procs, int distance, bool optimized,
                      CorrectionDirections directions, CorrectionScratch* scratch)
      : CorrectionEngine(num_procs),
        distance_(distance),
        optimized_(optimized),
        both_(directions == CorrectionDirections::kBoth),
        state_(owned_, scratch, &CorrectionScratch::opportunistic, num_procs) {
    if (distance < 0) throw std::invalid_argument("correction distance must be >= 0");
  }

  void start(sim::Context& ctx, Rank me) override {
    auto& s = state_[me];
    if (s.active) return;
    s.active = true;
    s.next_left = true;  // first message goes left (Lemma 2 convention)
    send_next(ctx, me);
  }

  void on_message(sim::Context& ctx, Rank me, const Message& msg) override {
    if (msg.tag != sim::tag::kCorrection) return;
    ctx.mark_colored(me);
    if (!optimized_) return;
    auto& s = state_[me];
    if (!s.active) return;
    // §3.3 optimization: a message from j at distance `dist` proves that j
    // covers [j-d, j-1] with its left messages (and, in both-directions
    // mode, [j+1, j+d] with its right messages). For j on our right that
    // leaves us only the left targets below j-d — "process 19 receives a
    // correction message from process 23; with d = 8, 23 surely sends
    // messages to processes 22, ..., 15, so 19 has to send only to
    // 14, ..., 11" — and it covers our entire right range.
    const std::int64_t dist = msg.payload < 0 ? -msg.payload : msg.payload;
    if (dist > distance_) return;  // cannot overlap our range
    const std::int64_t exhausted = static_cast<std::int64_t>(distance_) + 1;
    if (msg.payload < 0) {
      // Sender is to our right (it sent leftward).
      s.left_next = std::max(s.left_next, static_cast<std::int64_t>(distance_) - dist + 1);
      if (both_) s.right_next = exhausted;  // [i+1, i+d] ⊆ [j-d, j+d]
    } else if (both_) {
      s.right_next = std::max(s.right_next, static_cast<std::int64_t>(distance_) - dist + 1);
      s.left_next = exhausted;
    }
  }

  void on_sent(sim::Context& ctx, Rank me, const Message& msg) override {
    if (msg.tag != sim::tag::kCorrection) return;
    send_next(ctx, me);
  }

  void reset() override { state_.reset(); }

 private:
  void send_next(sim::Context& ctx, Rank me) {
    auto& s = state_[me];
    const std::int64_t limit =
        std::min<std::int64_t>(distance_, ring_.num_procs() - 1);
    const int tries = both_ ? 2 : 1;
    for (int attempt = 0; attempt < tries; ++attempt) {
      const bool left = both_ ? s.next_left : true;
      if (both_) s.next_left = !s.next_left;
      auto& next = left ? s.left_next : s.right_next;
      if (next <= limit) {
        const std::int64_t dist = next++;
        const Rank target = left ? ring_.left(me, dist) : ring_.right(me, dist);
        ctx.send(me, target, sim::tag::kCorrection, probe_payload(left ? -dist : dist));
        return;
      }
    }
  }

  int distance_;
  bool optimized_;
  bool both_;
  std::unique_ptr<CorrectionScratch> owned_;
  EngineStates<detail::OpportunisticState> state_;
};

// ---------------------------------------------------------------------------
// Checked correction (§3.1).
// ---------------------------------------------------------------------------

class CheckedEngine final : public CorrectionEngine {
 public:
  CheckedEngine(Rank num_procs, CorrectionDirections directions, CorrectionScratch* scratch)
      : CorrectionEngine(num_procs),
        both_(directions == CorrectionDirections::kBoth),
        state_(owned_, scratch, &CorrectionScratch::checked, num_procs) {}

  void start(sim::Context& ctx, Rank me) override {
    auto& s = state_[me];
    if (s.active) return;
    s.active = true;
    s.next_left = true;
    if (!both_) s.right_stop = true;
    send_next(ctx, me);
  }

  void on_message(sim::Context& ctx, Rank me, const Message& msg) override {
    if (msg.tag != sim::tag::kCorrection) return;
    ctx.mark_colored(me);
    auto& s = state_[me];
    // §3.1 stop rule, recorded whether or not we have started correcting: a
    // probe from j at ring distance d proves that j is alive and that j has
    // already sent to every rank between j and us (checked correction sends
    // in distance order). Neither fact depends on our own start, and start()
    // keeps the stop distances recorded here (it only sets next_left, plus
    // right_stop in left-only mode). Ignoring a probe that lands before start
    // would make this rank walk the ring once it starts (overlapped start,
    // fault-free, P = 1Ki: 23.05 instead of 6.38 msgs/proc in the sim).
    const std::int64_t dist = msg.payload < 0 ? -msg.payload : msg.payload;
    if (msg.payload < 0) {
      // Sender is to our right at `dist`. Stop sending right once we have
      // sent to it (possibly already done).
      if (s.right_next > dist) {
        s.right_stop = true;
      } else {
        s.right_stop_dist = std::min(s.right_stop_dist, dist);
      }
    } else {
      if (s.left_next > dist) {
        s.left_stop = true;
      } else {
        s.left_stop_dist = std::min(s.left_stop_dist, dist);
      }
    }
  }

  void on_sent(sim::Context& ctx, Rank me, const Message& msg) override {
    if (msg.tag != sim::tag::kCorrection) return;
    auto& s = state_[me];
    const std::int64_t dist = msg.payload < 0 ? -msg.payload : msg.payload;
    if (msg.payload < 0) {
      if (dist >= s.left_stop_dist) s.left_stop = true;
    } else {
      if (dist >= s.right_stop_dist) s.right_stop = true;
    }
    send_next(ctx, me);
  }

  void reset() override { state_.reset(); }

 private:
  void send_next(sim::Context& ctx, Rank me) {
    auto& s = state_[me];
    const std::int64_t limit = ring_.num_procs() - 1;  // full wrap = done
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool left = s.next_left;
      s.next_left = !s.next_left;
      const bool stopped = left ? s.left_stop : s.right_stop;
      auto& next = left ? s.left_next : s.right_next;
      if (!stopped && next <= limit) {
        const std::int64_t dist = next++;
        const Rank target = left ? ring_.left(me, dist) : ring_.right(me, dist);
        ctx.send(me, target, sim::tag::kCorrection, probe_payload(left ? -dist : dist));
        return;
      }
    }
  }

  bool both_;
  std::unique_ptr<CorrectionScratch> owned_;
  EngineStates<detail::CheckedState> state_;
};

// ---------------------------------------------------------------------------
// Failure-proof correction: ack-driven generalisation of checked correction
// that keeps its guarantee when processes die during the correction phase.
// See the header and DESIGN.md for the exact scheme and its tolerance bound.
// ---------------------------------------------------------------------------

class FailureProofEngine final : public CorrectionEngine {
 public:
  FailureProofEngine(Rank num_procs, int redundancy, CorrectionDirections directions,
                     CorrectionScratch* scratch)
      : CorrectionEngine(num_procs),
        redundancy_(redundancy),
        both_(directions == CorrectionDirections::kBoth),
        state_(owned_, scratch, &CorrectionScratch::failure_proof, num_procs) {
    if (redundancy < 1) throw std::invalid_argument("redundancy must be >= 1");
  }

  void start(sim::Context& ctx, Rank me) override {
    auto& s = state_[me];
    if (s.participant) return;
    s.participant = true;
    s.probe_left = true;
    s.probe_right = both_;
    maybe_send(ctx, me);
  }

  void on_message(sim::Context& ctx, Rank me, const Message& msg) override {
    auto& s = state_[me];
    if (msg.tag == sim::tag::kCorrection) {
      const bool was_colored = ctx.is_colored(me);
      ctx.mark_colored(me);
      // Always acknowledge a probe; the flag tells the prober whether we are
      // a participant with our own independent coverage of the direction.
      ctx.send(me, msg.src, sim::tag::kCorrReply, reply_payload(msg.payload, s.participant));
      // A process newly colored by correction relays the probe onward in its
      // travel direction — the redundancy that makes the scheme survive
      // deaths during correction.
      if (!was_colored && !s.participant) {
        if (msg.payload < 0 && !s.probe_left) {
          s.probe_left = true;
          maybe_send(ctx, me);
        } else if (msg.payload > 0 && !s.probe_right) {
          s.probe_right = true;
          maybe_send(ctx, me);
        }
      }
      return;
    }
    if (msg.tag == sim::tag::kCorrReply) {
      const std::int64_t dist = reply_distance(msg.payload);
      const bool participant = reply_participant(msg.payload);
      if (dist < 0) {
        // Our leftward probe was answered.
        ++s.left_replies;
        if (participant || s.left_replies >= redundancy_) s.left_stop = true;
      } else {
        ++s.right_replies;
        if (participant || s.right_replies >= redundancy_) s.right_stop = true;
      }
      return;
    }
  }

  void on_sent(sim::Context& ctx, Rank me, const Message& msg) override {
    if (msg.tag == sim::tag::kCorrection) {
      auto& s = state_[me];
      s.in_flight = false;
      maybe_send(ctx, me);
    } else if (msg.tag == sim::tag::kCorrReply) {
      // Replies share the send port; resume probing if one was pending.
      auto& s = state_[me];
      if (!s.in_flight) maybe_send(ctx, me);
    }
  }

  void reset() override { state_.reset(); }

 private:
  void maybe_send(sim::Context& ctx, Rank me) {
    auto& s = state_[me];
    if (s.in_flight) return;
    const std::int64_t limit = ring_.num_procs() - 1;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool left = s.next_left;
      s.next_left = !s.next_left;
      const bool responsible = left ? s.probe_left : s.probe_right;
      const bool stopped = left ? s.left_stop : s.right_stop;
      auto& next = left ? s.left_next : s.right_next;
      if (responsible && !stopped && next <= limit) {
        const std::int64_t dist = next++;
        const Rank target = left ? ring_.left(me, dist) : ring_.right(me, dist);
        s.in_flight = true;
        ctx.send(me, target, sim::tag::kCorrection, probe_payload(left ? -dist : dist));
        return;
      }
    }
  }

  int redundancy_;
  bool both_;
  std::unique_ptr<CorrectionScratch> owned_;
  EngineStates<detail::FailureProofState> state_;
};

// ---------------------------------------------------------------------------
// Delayed correction (§3.3): one message left; probe right only if no
// message from the right arrives within `delay`.
// ---------------------------------------------------------------------------

class DelayedEngine final : public CorrectionEngine {
 public:
  DelayedEngine(Rank num_procs, sim::Time delay, CorrectionScratch* scratch)
      : CorrectionEngine(num_procs),
        delay_(delay),
        state_(owned_, scratch, &CorrectionScratch::delayed, num_procs) {
    if (delay < 0) throw std::invalid_argument("delayed correction needs delay >= 0");
  }

  void start(sim::Context& ctx, Rank me) override {
    auto& s = state_[me];
    if (s.participant) return;
    s.participant = true;
    if (ring_.num_procs() < 2) return;
    ctx.send(me, ring_.left(me, 1), sim::tag::kCorrection, probe_payload(-1));
    ctx.set_timer(me, ctx.now() + delay_, sim::timer::kDelayExpired);
  }

  void on_message(sim::Context& ctx, Rank me, const Message& msg) override {
    auto& s = state_[me];
    if (msg.tag == sim::tag::kCorrection) {
      ctx.mark_colored(me);
      if (msg.payload < 0) {
        // Sent leftward, so it came from our right: the expected signal.
        s.got_from_right = true;
      } else if (s.participant) {
        // A rightward probe from the left; stop the prober (§3.3: "if a
        // process colored by dissemination receives a message from the
        // left, it immediately replies to stop the sender").
        ctx.send(me, msg.src, sim::tag::kCorrReply, reply_payload(msg.payload, true));
      }
    } else if (msg.tag == sim::tag::kCorrReply) {
      // Stop-reply to our rightward probing.
      s.got_from_right = true;
    }
  }

  void on_sent(sim::Context& ctx, Rank me, const Message& msg) override {
    auto& s = state_[me];
    if (msg.tag != sim::tag::kCorrection || !s.probing) return;
    if (!s.got_from_right && s.right_next <= ring_.num_procs() - 1) {
      const std::int64_t dist = s.right_next++;
      ctx.send(me, ring_.right(me, dist), sim::tag::kCorrection, probe_payload(dist));
    }
  }

  void on_timer(sim::Context& ctx, Rank me, std::int64_t id) override {
    if (id != sim::timer::kDelayExpired) return;
    auto& s = state_[me];
    if (!s.participant || s.got_from_right || s.probing) return;
    s.probing = true;
    if (s.right_next <= ring_.num_procs() - 1) {
      const std::int64_t dist = s.right_next++;
      ctx.send(me, ring_.right(me, dist), sim::tag::kCorrection, probe_payload(dist));
    }
  }

  void reset() override { state_.reset(); }

 private:
  sim::Time delay_;
  std::unique_ptr<CorrectionScratch> owned_;
  EngineStates<detail::DelayedState> state_;
};

}  // namespace

std::unique_ptr<CorrectionEngine> make_correction_engine(const CorrectionConfig& config,
                                                         Rank num_procs,
                                                         CorrectionScratch* scratch) {
  switch (config.kind) {
    case CorrectionKind::kNone:
      return nullptr;
    case CorrectionKind::kOpportunistic:
      return std::make_unique<OpportunisticEngine>(num_procs, config.distance,
                                                   /*optimized=*/false, config.directions,
                                                   scratch);
    case CorrectionKind::kOptimizedOpportunistic:
      return std::make_unique<OpportunisticEngine>(num_procs, config.distance,
                                                   /*optimized=*/true, config.directions,
                                                   scratch);
    case CorrectionKind::kChecked:
      return std::make_unique<CheckedEngine>(num_procs, config.directions, scratch);
    case CorrectionKind::kFailureProof:
      return std::make_unique<FailureProofEngine>(num_procs, config.redundancy,
                                                  config.directions, scratch);
    case CorrectionKind::kDelayed:
      return std::make_unique<DelayedEngine>(num_procs, config.delay, scratch);
  }
  throw std::logic_error("unreachable correction kind");
}

CorrectionEngine* acquire_correction_engine(const CorrectionConfig& config, Rank num_procs,
                                            CorrectionScratch& scratch) {
  if (config.kind == CorrectionKind::kNone) return nullptr;
  if (scratch.engine_cache && scratch.engine_config == config &&
      scratch.engine_procs == num_procs) {
    scratch.engine_cache->reset();
    return scratch.engine_cache.get();
  }
  scratch.engine_cache = make_correction_engine(config, num_procs, &scratch);
  scratch.engine_config = config;
  scratch.engine_procs = num_procs;
  return scratch.engine_cache.get();
}

}  // namespace ct::proto
