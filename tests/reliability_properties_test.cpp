// The four reliability properties of §2.1, checked mechanically over a
// matrix of protocols, trees and fault patterns:
//
//   Integrity         — every broadcast received was previously sent: a
//                       colored process holds exactly the root's payload.
//   No duplicates     — a process "delivers" (transitions to colored) at
//                       most once; later messages are masked.
//   Non-faulty liveness — a broadcast initiated by a live root is received
//                       by all live processes or by none (checked /
//                       failure-proof correction: always by all).
//   Faulty liveness   — trivial under the §2.1 model (the root initiates
//                       and is alive); covered by construction.
//
// A DeliveryMonitor wraps any protocol and observes Context traffic without
// disturbing it.

#include <gtest/gtest.h>

#include <memory>

#include "protocol/baselines.hpp"
#include "protocol/gossip_broadcast.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct {
namespace {

using topo::Rank;

/// Forwards every callback to the inner protocol while recording delivery
/// transitions (uncolored -> colored) and the data each delivery carried.
class DeliveryMonitor final : public sim::Protocol {
 public:
  explicit DeliveryMonitor(std::unique_ptr<sim::Protocol> inner, Rank num_procs)
      : inner_(std::move(inner)),
        deliveries_(static_cast<std::size_t>(num_procs), 0),
        delivered_data_(static_cast<std::size_t>(num_procs), 0) {}

  void begin(sim::Context& ctx) override {
    inner_->begin(ctx);
    observe_all(ctx);
  }
  void on_receive(sim::Context& ctx, Rank me, const sim::Message& msg) override {
    const bool was_colored = ctx.is_colored(me);
    inner_->on_receive(ctx, me, msg);
    if (!was_colored && ctx.is_colored(me)) {
      ++deliveries_[static_cast<std::size_t>(me)];
      delivered_data_[static_cast<std::size_t>(me)] = ctx.rank_data(me);
    }
  }
  void on_sent(sim::Context& ctx, Rank me, const sim::Message& msg) override {
    inner_->on_sent(ctx, me, msg);
  }
  void on_timer(sim::Context& ctx, Rank me, std::int64_t id) override {
    inner_->on_timer(ctx, me, id);
  }

  int deliveries(Rank r) const { return deliveries_[static_cast<std::size_t>(r)]; }
  std::int64_t delivered_data(Rank r) const {
    return delivered_data_[static_cast<std::size_t>(r)];
  }

 private:
  void observe_all(sim::Context& ctx) {
    // The root (and only the root) is delivered by begin().
    for (Rank r = 0; r < ctx.num_procs(); ++r) {
      if (ctx.is_colored(r)) {
        ++deliveries_[static_cast<std::size_t>(r)];
        delivered_data_[static_cast<std::size_t>(r)] = ctx.rank_data(r);
      }
    }
  }

  std::unique_ptr<sim::Protocol> inner_;
  std::vector<int> deliveries_;
  std::vector<std::int64_t> delivered_data_;
};

struct Case {
  std::string name;
  std::function<std::unique_ptr<sim::Protocol>(const topo::Tree&, const sim::LogP&,
                                               std::int64_t payload, std::uint64_t seed)>
      make;
  bool guarantees_full_coloring;  // under pre-broadcast faults
};

std::vector<Case> protocol_matrix() {
  std::vector<Case> cases;
  cases.push_back(
      {"corrected-tree-checked",
       [](const topo::Tree& tree, const sim::LogP& params, std::int64_t payload,
          std::uint64_t) -> std::unique_ptr<sim::Protocol> {
         proto::CorrectionConfig config;
         config.kind = proto::CorrectionKind::kChecked;
         config.start = proto::CorrectionStart::kSynchronized;
         config.sync_time = proto::fault_free_dissemination_time(tree, params);
         return std::make_unique<proto::CorrectedTreeBroadcast>(tree, config, payload);
       },
       true});
  cases.push_back(
      {"corrected-tree-failure-proof",
       [](const topo::Tree& tree, const sim::LogP& params, std::int64_t payload,
          std::uint64_t) -> std::unique_ptr<sim::Protocol> {
         proto::CorrectionConfig config;
         config.kind = proto::CorrectionKind::kFailureProof;
         config.start = proto::CorrectionStart::kSynchronized;
         config.sync_time = proto::fault_free_dissemination_time(tree, params);
         return std::make_unique<proto::CorrectedTreeBroadcast>(tree, config, payload);
       },
       true});
  cases.push_back(
      {"corrected-tree-opportunistic",
       [](const topo::Tree& tree, const sim::LogP&, std::int64_t payload,
          std::uint64_t) -> std::unique_ptr<sim::Protocol> {
         proto::CorrectionConfig config;
         config.kind = proto::CorrectionKind::kOptimizedOpportunistic;
         config.start = proto::CorrectionStart::kOverlapped;
         config.distance = 8;
         return std::make_unique<proto::CorrectedTreeBroadcast>(tree, config, payload);
       },
       false});  // probabilistic only
  cases.push_back(
      {"corrected-gossip-checked",
       [](const topo::Tree& tree, const sim::LogP&, std::int64_t payload,
          std::uint64_t seed) -> std::unique_ptr<sim::Protocol> {
         proto::GossipConfig config;
         config.budget = proto::GossipConfig::Budget::kTime;
         config.gossip_time = 40;
         config.correction.kind = proto::CorrectionKind::kChecked;
         config.correction.start = proto::CorrectionStart::kSynchronized;
         config.correction.sync_time = 40;
         config.seed = seed;
         config.payload = payload;
         return std::make_unique<proto::CorrectedGossipBroadcast>(tree.num_procs(),
                                                                  config);
       },
       true});
  cases.push_back(
      {"detector-tree",
       [](const topo::Tree& tree, const sim::LogP& params, std::int64_t payload,
          std::uint64_t) -> std::unique_ptr<sim::Protocol> {
         return std::make_unique<proto::DetectorTreeBroadcast>(tree, params, payload);
       },
       true});
  return cases;
}

TEST(ReliabilityProperties, HoldAcrossTheProtocolMatrix) {
  const Rank procs = 192;
  const std::int64_t payload = 0xFACADE;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};

  for (const Case& test_case : protocol_matrix()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      support::Xoshiro256ss rng(seed);
      const sim::FaultSet faults = sim::FaultSet::random_count(procs, 10, rng);
      auto monitor = std::make_unique<DeliveryMonitor>(
          test_case.make(tree, params, payload, seed), procs);
      sim::Simulator simulator(params, faults);
      const sim::RunResult result = simulator.run(*monitor);

      Rank delivered = 0;
      for (Rank r = 0; r < procs; ++r) {
        if (faults.failed_from_start(r)) continue;
        // No duplicates: at most one delivery per process.
        EXPECT_LE(monitor->deliveries(r), 1)
            << test_case.name << " rank " << r << " seed " << seed;
        if (monitor->deliveries(r) == 1) {
          ++delivered;
          // Integrity: the delivered word is the root's payload, nothing
          // invented by correction or recovery machinery.
          EXPECT_EQ(monitor->delivered_data(r), payload)
              << test_case.name << " rank " << r << " seed " << seed;
        }
      }
      if (test_case.guarantees_full_coloring) {
        // Non-faulty liveness, strong form.
        EXPECT_TRUE(result.fully_colored()) << test_case.name << " seed " << seed;
        EXPECT_EQ(delivered, procs - faults.failed_count());
      } else {
        // Probabilistic scheme: "all or some", never a corrupted delivery —
        // integrity/no-duplicates were already asserted above.
        EXPECT_GT(delivered, 0);
      }
    }
  }
}

TEST(ReliabilityProperties, MaskingHidesLateMessages) {
  // A process colored early by correction later receives its tree message;
  // the duplicate must be masked (coloring time unchanged, one delivery).
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kOptimizedOpportunistic;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = 8;
  auto monitor = std::make_unique<DeliveryMonitor>(
      std::make_unique<proto::CorrectedTreeBroadcast>(tree, config, 1), procs);
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  simulator.run(*monitor);
  for (Rank r = 0; r < procs; ++r) {
    EXPECT_EQ(monitor->deliveries(r), 1) << "rank " << r;
  }
}

}  // namespace
}  // namespace ct
