// Self-healing membership tests (DESIGN.md §4i): revive-schedule
// determinism, MembershipView units, generation-tagged envelopes,
// epoch-boundary tree reparation over survivors, the continuous
// crash+revive convergence soak, streaming repair, and the Engine's one
// membership: one-shot epochs and streams share its dead set and
// generation, Engine::heal reports each rejoin's outage (replayed up to
// kReplayWindow epochs, state-transferred beyond), and an explicit
// revival leaves no revival pending. Registered under the `recovery-smoke`
// ctest label (also `sanitize`, so the asan/tsan presets soak the repair
// paths).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "protocol/tree_broadcast.hpp"
#include "rt/chaos.hpp"
#include "rt/engine.hpp"
#include "rt/envelope.hpp"
#include "rt/harness.hpp"
#include "rt/membership.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

proto::CorrectionConfig make_correction(proto::CorrectionKind kind,
                                        int distance = 4) {
  proto::CorrectionConfig config;
  config.kind = kind;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = distance;
  return config;
}

std::vector<char> no_failures(Rank procs) {
  return std::vector<char>(static_cast<std::size_t>(procs), 0);
}

// --- revive schedules -------------------------------------------------------

TEST(ReviveSchedule, IsAPureFunctionOfSeedCrashEpochAndRank) {
  ChaosOptions options;
  options.seed = 0xFEEDu;
  options.revive_fraction = 0.5;
  options.revive_after_ns = 1'000'000;
  const ChaosPlan a(options);
  const ChaosPlan b(options);  // independent instance, same options
  bool some_scheduled = false;
  bool some_skipped = false;
  for (std::int64_t epoch = 0; epoch < 8; ++epoch) {
    for (Rank r = 0; r < 64; ++r) {
      const std::int64_t delay = a.revive_after_ns(epoch, r);
      ASSERT_EQ(delay, b.revive_after_ns(epoch, r));
      if (r == 0) {
        // Rank 0 never crashes, so it never needs a revive schedule either.
        EXPECT_EQ(delay, -1);
      }
      if (delay >= 0) {
        some_scheduled = true;
        EXPECT_EQ(delay, options.revive_after_ns);
      } else {
        some_skipped = true;
      }
    }
  }
  // At 50% both branches of the gate must be realised over 8x64 draws.
  EXPECT_TRUE(some_scheduled);
  EXPECT_TRUE(some_skipped);
}

TEST(ReviveSchedule, FractionGatesAndOverridesWin) {
  EXPECT_EQ(ChaosPlan{}.revive_after_ns(0, 5), -1);  // default: never
  EXPECT_FALSE(ChaosPlan{}.revives_enabled());

  ChaosOptions always;
  always.revive_fraction = 1.0;
  always.revive_after_ns = 42;
  const ChaosPlan all(always);
  EXPECT_TRUE(all.revives_enabled());
  for (Rank r = 1; r < 32; ++r) {
    EXPECT_EQ(all.revive_after_ns(3, r), 42);
  }

  ChaosPlan overrides;
  overrides.revive_after(7, 1000);
  overrides.revive_after(9, -1);  // pinned dead for good
  EXPECT_TRUE(overrides.revives_enabled());
  EXPECT_EQ(overrides.revive_after_ns(0, 7), 1000);
  EXPECT_EQ(overrides.revive_after_ns(5, 7), 1000);  // any crash epoch
  EXPECT_EQ(overrides.revive_after_ns(0, 9), -1);
  EXPECT_EQ(overrides.revive_after_ns(0, 8), -1);  // no fraction, no override
}

// --- membership views -------------------------------------------------------

TEST(MembershipView, IdentityMapsEveryRankToItself) {
  const MembershipView view = MembershipView::identity(8);
  EXPECT_TRUE(view.is_identity());
  EXPECT_EQ(view.num_global(), 8);
  EXPECT_EQ(view.num_live(), 8);
  EXPECT_EQ(view.generation(), 0);
  for (Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(view.global_of(r), r);
    EXPECT_EQ(view.dense_of(r), r);
    EXPECT_TRUE(view.is_live(r));
  }
}

TEST(MembershipView, OverSurvivorsCompactsTheDead) {
  std::vector<char> dead(8, 0);
  dead[2] = dead[5] = 1;
  const MembershipView view = MembershipView::over_survivors(dead, 3);
  EXPECT_FALSE(view.is_identity());
  EXPECT_EQ(view.num_global(), 8);
  EXPECT_EQ(view.num_live(), 6);
  EXPECT_EQ(view.generation(), 3);
  // Dense ids are the survivors in global order.
  const std::vector<Rank> expected_live = {0, 1, 3, 4, 6, 7};
  EXPECT_EQ(view.live(), expected_live);
  for (Rank d = 0; d < view.num_live(); ++d) {
    EXPECT_EQ(view.global_of(d), expected_live[static_cast<std::size_t>(d)]);
    EXPECT_EQ(view.dense_of(view.global_of(d)), d);
  }
  EXPECT_EQ(view.dense_of(2), topo::kNoRank);
  EXPECT_EQ(view.dense_of(5), topo::kNoRank);
  EXPECT_FALSE(view.is_live(2));
  EXPECT_TRUE(view.is_live(3));
}

TEST(MembershipView, AllRevivedCollapsesBackToIdentityButKeepsGeneration) {
  const MembershipView view =
      MembershipView::over_survivors(std::vector<char>(8, 0), 5);
  EXPECT_TRUE(view.is_identity());  // the no-failure fast path is restored
  EXPECT_EQ(view.generation(), 5);  // ... but stale mail still gets dropped
  EXPECT_EQ(view.num_live(), 8);
}

// --- generation-tagged envelopes -------------------------------------------

TEST(EnvelopeTag, GenerationZeroKeepsThePrePr9WireFormat) {
  // gen 0 => tag == epoch bit-for-bit, so runs that never repair are
  // unchanged on the wire (the A/B latency guard depends on this).
  for (const std::int64_t epoch : {0LL, 1LL, 77LL, 0xFFFFFFLL}) {
    EXPECT_EQ(Envelope::make_tag(epoch, 0), static_cast<std::int32_t>(epoch));
  }
}

TEST(EnvelopeTag, PacksEpochAndGenerationSideBySide) {
  const std::int32_t tag = Envelope::make_tag(0x123456, 0xAB);
  Envelope envelope(sim::Message{.src = 0, .dst = 1}, tag);
  EXPECT_EQ(envelope.epoch(), 0x123456);
  EXPECT_EQ(envelope.generation(), 0xAB);
  EXPECT_EQ(envelope.tag(), tag);
  // The 24-bit epoch window wraps; the generation stays intact.
  const std::int32_t wrapped = Envelope::make_tag(0x1000001, 3);
  Envelope w(sim::Message{}, wrapped);
  EXPECT_EQ(w.epoch(), 1);
  EXPECT_EQ(w.generation(), 3);
  // Generations wrap mod 256 on the engine side; make_tag masks the same way.
  EXPECT_EQ(Envelope::make_tag(5, 256), Envelope::make_tag(5, 0));
}

// --- engine repair API ------------------------------------------------------

TEST(RepairApi, RequiresRepairModeAndGuardsTheRoot) {
  const Rank procs = 8;
  EngineOptions plain;
  plain.workers = 2;
  Engine engine(procs, no_failures(procs), plain);
  EXPECT_THROW(engine.repair_membership({1}, {}), std::logic_error);

  EngineOptions repairing = plain;
  repairing.repair = true;
  std::vector<char> failed = no_failures(procs);
  failed[6] = 1;  // failed at construction: has no thread, can never revive
  Engine fixer(procs, failed, repairing);
  EXPECT_THROW(fixer.repair_membership({0}, {}), std::invalid_argument);
  EXPECT_THROW(fixer.repair_membership({}, {6}), std::invalid_argument);
  EXPECT_THROW(fixer.repair_membership({procs}, {}), std::invalid_argument);

  // Initial membership is the identity even with construction failures: the
  // first repair compacts over *all* dead ranks.
  EXPECT_TRUE(fixer.membership().is_identity());
  EXPECT_EQ(fixer.generation(), 0);
  EXPECT_TRUE(fixer.is_dead(6));

  EXPECT_FALSE(fixer.repair_membership({}, {}));  // no change, no generation
  EXPECT_TRUE(fixer.repair_membership({3}, {}));
  EXPECT_EQ(fixer.generation(), 1);
  EXPECT_TRUE(fixer.is_dead(3));
  EXPECT_EQ(fixer.live_count(), 6);
  EXPECT_EQ(fixer.membership().num_live(), 6);
  EXPECT_FALSE(fixer.membership().is_live(3));
  EXPECT_FALSE(fixer.membership().is_live(6));

  EXPECT_FALSE(fixer.repair_membership({3}, {}));  // already dead: no change
  EXPECT_TRUE(fixer.repair_membership({}, {3}));   // chaos-dead ranks revive
  EXPECT_EQ(fixer.generation(), 2);
  EXPECT_FALSE(fixer.is_dead(3));
  EXPECT_EQ(fixer.live_count(), 7);
}

TEST(RepairApi, GenerationWrapsModulo256) {
  EngineOptions options;
  options.workers = 2;
  options.repair = true;
  Engine engine(8, no_failures(8), options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine.repair_membership(i % 2 == 0 ? std::vector<Rank>{1}
                                                    : std::vector<Rank>{},
                                         i % 2 == 0 ? std::vector<Rank>{}
                                                    : std::vector<Rank>{1}));
    ASSERT_EQ(engine.generation(), (i + 1) & 0xFF);
    ASSERT_EQ(engine.membership().generation(), engine.generation());
  }
}

// --- epoch-boundary tree reparation ----------------------------------------

// A dead inner node of an in-order binomial tree leaves its whole
// *contiguous* subtree uncolored — a ring gap wider than distance-1
// opportunistic correction can bridge, so without repair every epoch
// re-runs the gap and stays degraded. An epoch-boundary rebuild over the
// survivors removes the gap entirely, so the very next epoch is clean.
TEST(Repair, RebuildsTheTreeOverSurvivorsAfterAnInnerNodeDeath) {
  const Rank procs = 32;
  topo::TreeSpec tree_spec;
  tree_spec.kind = topo::TreeKind::kBinomialInOrder;  // contiguous subtrees
  const topo::Tree tree = topo::make_tree(tree_spec, procs);
  // Pick a non-root inner node with at least 3 descendants: victim +
  // subtree is a contiguous uncolored run of >= 4, defeating distance 1.
  Rank victim = topo::kNoRank;
  for (const Rank candidate : tree.children(0)) {
    int descendants = 0;
    for (Rank r = 1; r < procs; ++r) {
      for (Rank cur = r; cur != 0; cur = tree.parent(cur)) {
        if (cur == candidate && r != candidate) {
          ++descendants;
          break;
        }
      }
    }
    if (descendants >= 3) victim = candidate;
  }
  ASSERT_NE(victim, topo::kNoRank);

  EngineOptions options;
  options.workers = 4;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  const auto timeout = std::chrono::milliseconds(250);
  ChaosPlan plan;
  plan.kill_at_ns(victim, 0);
  engine.set_chaos(std::move(plan));
  const auto correction =
      make_correction(proto::CorrectionKind::kOpportunistic, /*distance=*/1);

  // Epoch 0: the victim dies before forwarding; the distance-1 ring
  // cannot bridge its subtree-wide gap, so the epoch ends degraded at
  // its timeout.
  proto::CorrectedTreeBroadcast first(tree, correction);
  const EpochResult injured = engine.run_epoch(first, timeout);
  EXPECT_TRUE(injured.degraded());
  const std::vector<Rank> victims = {victim};
  EXPECT_EQ(injured.crashed_ranks, victims);

  // Repair at the boundary: persist the death, rebuild over survivors.
  ASSERT_TRUE(engine.repair_membership(injured.crashed_ranks, {}));
  const MembershipView& view = engine.membership();
  ASSERT_EQ(view.num_live(), procs - 1);
  const topo::Tree repaired =
      topo::make_survivor_tree(tree_spec, view.num_live());

  // Epochs 1..3: same weak correction, yet clean — the gap is gone.
  for (int epoch = 1; epoch <= 3; ++epoch) {
    auto protocol =
        std::make_unique<proto::CorrectedTreeBroadcast>(repaired, correction);
    RemappedProtocol remapped(std::move(protocol), view);
    const EpochResult result = engine.run_epoch(remapped, timeout);
    EXPECT_FALSE(result.degraded()) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    EXPECT_TRUE(result.crashed_ranks.empty()) << "epoch " << epoch;
  }
}

// --- continuous crash + revive convergence (the PR9 acceptance gate) --------

void soak(Rank procs, std::int64_t epochs) {
  EngineOptions options;
  options.workers = 4;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  ChaosOptions chaos;
  chaos.seed = 0x9E0Cu;
  chaos.crash_fraction = 0.02;
  chaos.revive_fraction = 1.0;
  chaos.revive_after_ns = 0;  // eligible at the very next boundary
  engine.set_chaos(ChaosPlan(chaos));

  const topo::TreeSpec tree_spec;
  std::int32_t cached_generation = 0;
  std::unique_ptr<topo::Tree> cached;
  const MembershipProtocolFactory factory =
      [&](const MembershipView& view) -> std::unique_ptr<sim::Protocol> {
    if (!cached || cached_generation != view.generation()) {
      cached = std::make_unique<topo::Tree>(
          topo::make_survivor_tree(tree_spec, view.num_live()));
      cached_generation = view.generation();
    }
    return std::make_unique<proto::CorrectedTreeBroadcast>(
        *cached, make_correction(proto::CorrectionKind::kChecked));
  };

  HarnessOptions harness;
  harness.warmup = 2;
  harness.iterations = epochs;
  // Sanitizer builds run many times slower; the soak asserts timeouts == 0,
  // so give each epoch headroom instead of letting instrumentation overhead
  // masquerade as a recovery failure.
  harness.epoch_timeout = std::chrono::seconds(120);
  const HarnessResult result = rt::measure_recovery(engine, factory, harness);

  EXPECT_EQ(result.iterations, epochs);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  // 2% of `procs` per epoch across warmup+measured epochs: deaths, repairs
  // and (with revive-frac=1) rejoins are all but certain.
  EXPECT_GT(result.ranks_crashed, 0);
  EXPECT_GT(result.repairs, 0);
  EXPECT_GT(result.rejoins, 0);
  // With revive-after 0 every outage lasts exactly one epoch, which the
  // 64-epoch replay log always covers: every rejoin replays one missed
  // epoch and nobody needs the state-transfer fallback.
  EXPECT_EQ(result.state_transfers, 0);
  EXPECT_EQ(result.replayed_epochs, result.rejoins);
  // The acceptance gate: the service re-converges within k <= 3 epochs of
  // the last injected fault.
  EXPECT_LE(result.epochs_to_converge, 3);
}

TEST(Recovery, ContinuousCrashReviveConvergesSharded) {
  soak(512, 20);
}

// --- streaming repair -------------------------------------------------------

TEST(StreamRepair, RetiresCorpsesAtAdmissionAndReadmitsRevived) {
  const Rank procs = 256;
  EngineOptions options;
  options.workers = 4;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  ChaosOptions chaos;
  chaos.seed = 0x57EAu;
  chaos.crash_fraction = 0.05;
  chaos.revive_fraction = 1.0;
  // A multi-epoch outage: admissions during the 5 ms the rank is down see
  // it as dead_at_start (revive-after 0 would readmit before any epoch
  // could observe the corpse).
  chaos.revive_after_ns = 5'000'000;
  engine.set_chaos(ChaosPlan(chaos));

  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const ProtocolFactory factory = [&]() -> std::unique_ptr<sim::Protocol> {
    return std::make_unique<proto::CorrectedTreeBroadcast>(
        tree, make_correction(proto::CorrectionKind::kChecked));
  };
  StreamOptions stream;
  stream.epochs = 160;
  stream.window = 4;
  const StreamHarnessResult result = measure_stream(engine, factory, stream);

  EXPECT_EQ(result.epochs, stream.epochs);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_GT(result.ranks_crashed, 0);
  // The coordinator persisted deaths (bumping the generation) and later
  // readmitted the revived ranks.
  EXPECT_GT(result.repairs, 0);
  EXPECT_GT(result.rejoins, 0);
  EXPECT_EQ(result.state_transfers, result.rejoins);  // streams never replay
  std::int64_t dead_at_start = 0;
  std::int64_t deliveries = 0;
  for (const StreamEpoch& epoch : result.raw.epochs) {
    dead_at_start += epoch.dead_at_start;
    // Corpses are excluded from the live set, never double-counted.
    EXPECT_LE(epoch.dead_at_start + epoch.crashed, procs);
    deliveries += procs - epoch.dead_at_start - epoch.crashed - epoch.uncolored;
  }
  EXPECT_GT(dead_at_start, 0);
  // Each epoch delivers to the ranks live at its own admission, however
  // the membership moved by the end of the stream.
  EXPECT_EQ(result.deliveries, deliveries);
}

// --- one membership per engine -----------------------------------------------

std::unique_ptr<sim::Protocol> checked_broadcast(const topo::Tree& tree) {
  return std::make_unique<proto::CorrectedTreeBroadcast>(
      tree, make_correction(proto::CorrectionKind::kChecked));
}

// A crash persisted by a one-shot epoch is the next stream's corpse: the
// stream starts from the engine's dead set (the rank is excluded, not
// crashed again) and continues its generation instead of resetting both.
TEST(OneMembership, OneShotCrashesPersistIntoTheNextStream) {
  const Rank procs = 64;
  EngineOptions options;
  options.workers = 4;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  ChaosPlan plan;
  plan.kill_at_ns(9, 0);
  plan.revive_after(9, -1);  // pinned dead for good
  engine.set_chaos(std::move(plan));
  const topo::Tree tree = topo::make_binomial_interleaved(procs);

  const auto one_shot = checked_broadcast(tree);
  const EpochResult epoch = engine.run_epoch(*one_shot, std::chrono::seconds(60));
  EXPECT_EQ(epoch.crashed_ranks, std::vector<Rank>{9});
  EXPECT_TRUE(engine.is_dead(9));

  StreamOptions stream;
  stream.epochs = 8;
  stream.window = 2;
  stream.epoch_timeout = std::chrono::seconds(60);
  const StreamHarnessResult result =
      measure_stream(engine, [&tree] { return checked_broadcast(tree); }, stream);
  ASSERT_EQ(result.raw.epochs.size(), 8u);
  EXPECT_EQ(result.deliveries, 8 * (procs - 1));
  for (const StreamEpoch& streamed : result.raw.epochs) {
    EXPECT_EQ(streamed.dead_at_start, 1) << "epoch " << streamed.epoch;
    EXPECT_EQ(streamed.crashed, 0) << "epoch " << streamed.epoch;
    EXPECT_EQ(streamed.uncolored, 0) << "epoch " << streamed.epoch;
  }
  // The first admission repaired the one-shot crash: one bump in all.
  EXPECT_EQ(engine.generation(), 1);
}

// The replay/state-transfer boundary, through the code measure_recovery
// runs: the outage Engine::heal reports and rejoin_replays. Rank 5 dies at
// the start of every epoch it is live in and is due back at once, so N
// epochs between two boundaries leave an outage of exactly N.
TEST(OneMembership, OutageAtTheReplayWindowReplaysAndOneMoreTransfers) {
  const Rank procs = 8;
  EngineOptions options;
  options.workers = 2;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  ChaosPlan plan;
  plan.kill_at_ns(5, 0);
  plan.revive_after(5, 0);
  engine.set_chaos(std::move(plan));
  const topo::Tree tree = topo::make_binomial_interleaved(procs);

  struct Case {
    std::int64_t epochs;
    bool replays;
  };
  for (const Case c : {Case{1, true}, Case{kReplayWindow, true},
                       Case{kReplayWindow + 1, false}}) {
    for (std::int64_t i = 0; i < c.epochs; ++i) {
      const auto protocol = checked_broadcast(tree);
      const EpochResult epoch = engine.run_epoch(*protocol, std::chrono::seconds(60));
      ASSERT_FALSE(epoch.timed_out);
      ASSERT_EQ(epoch.crashed_ranks.size(), i == 0 ? 1u : 0u);
    }
    const HealResult heal = engine.heal();
    EXPECT_TRUE(heal.repaired);
    ASSERT_EQ(heal.outages, std::vector<std::int64_t>{c.epochs});
    EXPECT_EQ(rejoin_replays(heal.outages.front()), c.replays) << c.epochs;
    EXPECT_FALSE(engine.is_dead(5));
  }
}

// ct_bench's rt-checked-chaos warmup: measure_recovery, then revive every
// rank it left dead, so the measured call starts from the full membership.
// The last epoch's crash is already persisted, and the explicit revival
// drops every pending revival, so the next boundary neither rejoins nor
// repairs.
TEST(OneMembership, RevivingEveryDeadRankAfterRecoveryLeavesNothingPending) {
  const Rank procs = 64;
  EngineOptions options;
  options.workers = 4;
  options.repair = true;
  Engine engine(procs, no_failures(procs), options);
  ChaosPlan plan;
  plan.kill_at_ns(9, 0);
  plan.revive_after(9, 0);  // back at every boundary, dies in every epoch
  plan.kill_at_ns(17, 0);
  plan.revive_after(17, std::int64_t{3600} * 1'000'000'000);  // still pending
  engine.set_chaos(std::move(plan));

  const topo::TreeSpec tree_spec;
  std::unique_ptr<topo::Tree> tree;
  const MembershipProtocolFactory factory =
      [&](const MembershipView& view) -> std::unique_ptr<sim::Protocol> {
    tree = std::make_unique<topo::Tree>(topo::make_survivor_tree(tree_spec, view.num_live()));
    return checked_broadcast(*tree);
  };
  HarnessOptions harness;
  harness.warmup = 0;
  harness.iterations = 4;
  harness.epoch_timeout = std::chrono::seconds(60);
  const HarnessResult result = measure_recovery(engine, factory, harness);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.rejoins, 3);  // rank 9 at each boundary after the first

  std::vector<Rank> dead;
  for (Rank r = 1; r < procs; ++r) {
    if (engine.is_dead(r)) dead.push_back(r);
  }
  EXPECT_EQ(dead, (std::vector<Rank>{9, 17}));
  EXPECT_TRUE(engine.repair_membership({}, dead));
  EXPECT_EQ(engine.live_count(), procs);
  EXPECT_TRUE(engine.membership().is_identity());

  const std::int32_t generation = engine.generation();
  const HealResult heal = engine.heal();
  EXPECT_FALSE(heal.repaired);
  EXPECT_TRUE(heal.outages.empty());
  EXPECT_EQ(engine.generation(), generation);
}

}  // namespace
}  // namespace ct::rt
