#include "protocol/stream_mux.hpp"

#include <stdexcept>
#include <utility>

namespace ct::proto {

// Per-epoch view handed to inner protocol instances. Translates tags and
// timer ids into the epoch's namespace band on the way out; the mux strips
// the band on the way back in before dispatching. Coloring is intercepted
// into the per-epoch bitmap — inner protocols (opportunistic correction in
// particular) read neighbours' coloring, which must be *this epoch's*
// coloring, not a predecessor's.
class StreamMux::EpochContext final : public sim::Context {
 public:
  EpochContext(StreamMux& mux, sim::Context& outer, std::int64_t epoch)
      : mux_(mux), outer_(outer), epoch_(epoch) {}

  sim::Time now() const override { return outer_.now(); }
  topo::Rank num_procs() const override { return outer_.num_procs(); }

  void send(topo::Rank from, topo::Rank to, sim::Tag tag, std::int64_t payload) override {
    ++mux_.records_[static_cast<std::size_t>(epoch_)].sends;
    outer_.send(from, to, tag + epoch_ * kStride, payload);
  }
  void set_timer(topo::Rank on, sim::Time when, std::int64_t id) override {
    outer_.set_timer(on, when, epoch_ * kStride + id);
  }
  void mark_colored(topo::Rank r) override { mux_.color(outer_, epoch_, r); }
  bool is_colored(topo::Rank r) const override {
    return mux_.colored_in(epoch_, r);
  }
  void note_correction_start() override {
    // Gap metrics snapshot global coloring; only epoch 0's correction start
    // is meaningful for them, and the outer context keeps first-call-wins
    // semantics anyway.
    if (epoch_ == 0) outer_.note_correction_start();
  }
  void set_rank_data(topo::Rank r, std::int64_t data) override {
    outer_.set_rank_data(r, data);
  }
  std::int64_t rank_data(topo::Rank r) const override { return outer_.rank_data(r); }

 private:
  StreamMux& mux_;
  sim::Context& outer_;
  std::int64_t epoch_;
};

StreamMux::StreamMux(Factory factory, StreamMuxOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  if (!factory_) throw std::invalid_argument("StreamMux: null factory");
  if (options_.epochs < 1) throw std::invalid_argument("StreamMux: epochs must be >= 1");
  if (options_.window < 1) throw std::invalid_argument("StreamMux: window must be >= 1");
  if (options_.interval < 0) throw std::invalid_argument("StreamMux: negative interval");
}

StreamMux::~StreamMux() = default;

void StreamMux::begin(sim::Context& ctx) {
  const topo::Rank procs = ctx.num_procs();
  if (!options_.excluded.empty() &&
      options_.excluded.size() != static_cast<std::size_t>(procs)) {
    throw std::invalid_argument("StreamMux: excluded mask size != num_procs");
  }
  expected_ = procs;
  for (const char ex : options_.excluded) expected_ -= ex ? 1 : 0;

  const auto epochs = static_cast<std::size_t>(options_.epochs);
  records_.assign(epochs, StreamMuxEpoch{});
  colored_.assign(epochs, std::vector<char>(static_cast<std::size_t>(procs), 0));
  instances_.clear();
  instances_.resize(epochs);
  waiting_.clear();
  in_flight_ = 0;
  next_closed_ = 0;
  filling_ = false;
  retired_ = 0;

  if (options_.interval > 0) {
    // Open loop: every offered arrival is scheduled up front on the root's
    // timer (rank 0 never fails, so the arrival process cannot die).
    for (std::int64_t e = 0; e < options_.epochs; ++e) {
      records_[static_cast<std::size_t>(e)].scheduled = e * options_.interval;
      ctx.set_timer(0, e * options_.interval, e * kStride);
    }
  } else {
    fill_window(ctx);  // closed loop; each retirement admits the next
  }
}

void StreamMux::on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) {
  const std::int64_t e = msg.tag / kStride;
  sim::Message inner = msg;
  inner.tag = msg.tag % kStride;
  EpochContext ectx(*this, ctx, e);
  instances_[static_cast<std::size_t>(e)]->on_receive(ectx, me, inner);
}

void StreamMux::on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) {
  const std::int64_t e = msg.tag / kStride;
  sim::Message inner = msg;
  inner.tag = msg.tag % kStride;
  EpochContext ectx(*this, ctx, e);
  instances_[static_cast<std::size_t>(e)]->on_sent(ectx, me, inner);
}

void StreamMux::on_timer(sim::Context& ctx, topo::Rank me, std::int64_t id) {
  const std::int64_t e = id / kStride;
  const std::int64_t inner = id % kStride;
  if (inner == 0) {
    arrival(ctx, e);
    return;
  }
  EpochContext ectx(*this, ctx, e);
  instances_[static_cast<std::size_t>(e)]->on_timer(ectx, me, inner);
}

void StreamMux::arrival(sim::Context& ctx, std::int64_t e) {
  if (in_flight_ < options_.window) {
    admit(ctx, e);
  } else {
    waiting_.push_back(e);  // backpressure: queue, never drop
  }
}

void StreamMux::admit(sim::Context& ctx, std::int64_t e) {
  StreamMuxEpoch& rec = records_[static_cast<std::size_t>(e)];
  rec.admitted = ctx.now();
  if (options_.interval <= 0) rec.scheduled = rec.admitted;
  ++in_flight_;
  instances_[static_cast<std::size_t>(e)] = factory_();
  EpochContext ectx(*this, ctx, e);
  instances_[static_cast<std::size_t>(e)]->begin(ectx);
}

/// Closed loop: admits the next epochs, in order, while the window has
/// room. An epoch with no counted rank but the root retires inside its own
/// admission; the nested call returns and this loop admits its successor,
/// so no instance is replaced while it runs and the stack stays flat.
void StreamMux::fill_window(sim::Context& ctx) {
  if (filling_) return;
  filling_ = true;
  while (in_flight_ < options_.window && next_closed_ < options_.epochs) {
    admit(ctx, next_closed_++);
  }
  filling_ = false;
}

void StreamMux::color(sim::Context& ctx, std::int64_t e, topo::Rank r) {
  std::vector<char>& bits = colored_[static_cast<std::size_t>(e)];
  if (bits[static_cast<std::size_t>(r)]) return;
  bits[static_cast<std::size_t>(r)] = 1;
  // Global coloring feeds the simulator's first-coloring metrics and the
  // integrity masking; it is idempotent across epochs.
  ctx.mark_colored(r);
  if (!options_.excluded.empty() && options_.excluded[static_cast<std::size_t>(r)]) {
    return;  // victims racing their death do not count toward completion
  }
  StreamMuxEpoch& rec = records_[static_cast<std::size_t>(e)];
  if (++rec.colored == expected_ && rec.retired < 0) retire(ctx, e);
}

void StreamMux::retire(sim::Context& ctx, std::int64_t e) {
  records_[static_cast<std::size_t>(e)].retired = ctx.now();
  ++retired_;
  --in_flight_;
  if (options_.interval > 0) {
    while (in_flight_ < options_.window && !waiting_.empty()) {
      const std::int64_t next = waiting_.front();
      waiting_.pop_front();
      admit(ctx, next);
    }
  } else {
    fill_window(ctx);
  }
}

}  // namespace ct::proto
