#pragma once
// Related-work baselines (§5), implemented so the paper's comparisons are
// runnable rather than cited:
//
//  * DetectorTreeBroadcast — the failure-detector school (Hursey & Graham
//    [22] and the ack/restructuring protocols [2,5,11,16,25,30,32,35]): a
//    process that misses its expected tree message suspects its ancestry
//    and pulls the payload from ever-higher ancestors. Reliability comes
//    from detection timeouts, which is precisely the latency cost the paper
//    argues against ("we avoid costly requirements such as the need for a
//    failure detector").
//
//  * MultiTreeBroadcast — the multi-tree school (Itai & Rodeh [24],
//    SplitStream [7]): disseminate concurrently over several trees whose
//    inner nodes differ, so one failure cannot cut off any process from all
//    trees. Doubles (k-folds) the traffic and "optimizing the tree
//    structure for low latency often becomes impossible" (§5).

#include <vector>

#include "sim/logp.hpp"
#include "sim/protocol.hpp"
#include "topology/tree.hpp"

namespace ct::proto {

class DetectorTreeBroadcast final : public sim::Protocol {
 public:
  DetectorTreeBroadcast(const topo::Tree& tree, const sim::LogP& params,
                        std::int64_t payload = 0);

  void begin(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, topo::Rank me, std::int64_t id) override;

  /// Worst-case fault-free coloring instant of rank r (per-level bound);
  /// the detector fires a fixed slack after it.
  sim::Time expected_colored_by(topo::Rank r) const;

 private:
  void color(sim::Context& ctx, topo::Rank me, std::int64_t data);
  void climb(sim::Context& ctx, topo::Rank me);

  const topo::Tree& tree_;
  sim::LogP params_;
  std::int64_t payload_;

  std::vector<char> started_;                   // did its tree sends
  std::vector<topo::Rank> pull_target_;         // current ancestor being pulled
  std::vector<std::vector<topo::Rank>> pending_pulls_;  // pulls awaiting our coloring
};

class MultiTreeBroadcast final : public sim::Protocol {
 public:
  /// All trees must span the same rank set with root 0. Typically built via
  /// make_rotated_trees below.
  MultiTreeBroadcast(std::vector<topo::Tree> trees, std::int64_t payload = 0);

  void begin(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;

 private:
  void forward(sim::Context& ctx, topo::Rank me, std::size_t tree_index);

  std::vector<topo::Tree> trees_;
  std::int64_t payload_;
  /// started_[tree][rank]: rank already forwarded along that tree.
  std::vector<std::vector<char>> started_;
};

/// Builds `count` interleaved binomial trees over P ranks whose non-root
/// labels are rotated against each other ((P-1)/count apart), so inner
/// nodes of one tree are predominantly leaves of the others — the
/// multi-tree redundancy construction.
std::vector<topo::Tree> make_rotated_trees(topo::Rank num_procs, int count);

}  // namespace ct::proto
