#pragma once
// Streaming broadcast in the simulator (PR8): one sim::Simulator run hosts a
// *window* of concurrently in-flight broadcast epochs by multiplexing
// per-epoch protocol instances onto the single event queue. This is the
// simulator-side twin of the sharded rt executor's slot window: epoch e's
// traffic is namespaced by tag/timer-id stride (outer = e * kStride + inner)
// so instances never see each other's messages, while their sends still
// contend for the same LogP send/receive ports — which is exactly the
// pipelining effect being modelled (port pressure g/G between epochs).
//
// Admission follows the rt coordinator:
//  - closed loop (interval == 0): the window is filled at begin(); each
//    retirement admits the next epoch.
//  - open loop (interval > 0): epoch e is *offered* at time e * interval
//    (a timer on the always-alive root); if the window is full the arrival
//    is queued FIFO — blocked, never dropped — and admitted on retirement.
//
// An epoch retires when every counted rank is colored (initially-failed
// ranks and scheduled kill victims are excluded via `excluded`; the sim
// Context has no liveness query, so the caller supplies the exclusion set).
// Retirement time is the epoch's *coloring* completion — the sim analog of
// the rt slot's completion countdown.
//
// Known modelling limitation: Context::rank_data is global per-rank state
// stamped by the simulator at send time, so all in-flight epochs share one
// payload word. Coloring, message counts and latencies are per-epoch; the
// data-plane integrity checks are meaningful only for W = 1.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/protocol.hpp"

namespace ct::proto {

struct StreamMuxOptions {
  std::int64_t epochs = 1;
  std::int32_t window = 1;
  /// Ticks between offered arrivals; 0 selects the closed loop.
  sim::Time interval = 0;
  /// Ranks not counted toward per-epoch completion (initially failed and
  /// mid-stream kill victims). Empty means every rank must color. Sized P
  /// when non-empty.
  std::vector<char> excluded;
};

/// Per-epoch outcome, indexed by epoch number (admission order).
struct StreamMuxEpoch {
  sim::Time scheduled = 0;  ///< offered-arrival time
  sim::Time admitted = -1;  ///< window entry (== scheduled unless queued)
  sim::Time retired = -1;   ///< all counted ranks colored; -1 = never
  topo::Rank colored = 0;   ///< counted ranks colored (excludes `excluded`)
  std::int64_t sends = 0;   ///< logical sends requested by this epoch

  bool complete() const { return retired >= 0; }
  sim::Time sojourn() const { return retired - scheduled; }
  sim::Time service() const { return retired - admitted; }
};

/// Protocol adapter: runs `epochs` instances built by `factory` through one
/// simulator run, at most `window` concurrently.
class StreamMux final : public sim::Protocol {
 public:
  using Factory = std::function<std::unique_ptr<sim::Protocol>()>;

  /// Tag/timer-id namespace stride per epoch. Inner protocols use tags and
  /// timer ids in [1, kStride); id 0 of each epoch's band is the mux's own
  /// admission timer.
  static constexpr std::int64_t kStride = 16;

  StreamMux(Factory factory, StreamMuxOptions options);
  ~StreamMux() override;

  void begin(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, topo::Rank me, std::int64_t id) override;

  const std::vector<StreamMuxEpoch>& epochs() const { return records_; }
  std::int64_t retired_count() const { return retired_; }
  /// Whether rank r was colored during epoch e (valid after the run; covers
  /// excluded ranks too, which stay false unless a victim raced its death).
  bool colored_in(std::int64_t e, topo::Rank r) const {
    return colored_[static_cast<std::size_t>(e)][static_cast<std::size_t>(r)] != 0;
  }

 private:
  class EpochContext;

  void arrival(sim::Context& ctx, std::int64_t e);
  void admit(sim::Context& ctx, std::int64_t e);
  void fill_window(sim::Context& ctx);
  void color(sim::Context& ctx, std::int64_t e, topo::Rank r);
  void retire(sim::Context& ctx, std::int64_t e);

  Factory factory_;
  StreamMuxOptions options_;
  topo::Rank expected_ = 0;  ///< counted ranks per epoch
  std::vector<StreamMuxEpoch> records_;
  std::vector<std::vector<char>> colored_;  ///< per-epoch coloring bitmaps
  /// Instances stay alive after retirement: a retiring mark_colored runs
  /// inside the instance's own callback, and late tail traffic (ack waves,
  /// correction replies) still dispatches to it harmlessly.
  std::vector<std::unique_ptr<sim::Protocol>> instances_;
  std::deque<std::int64_t> waiting_;  ///< offered while the window was full
  std::int32_t in_flight_ = 0;
  std::int64_t next_closed_ = 0;  ///< next unadmitted epoch (closed loop)
  bool filling_ = false;          ///< fill_window() is on the stack
  std::int64_t retired_ = 0;
};

}  // namespace ct::proto
