// Self-healing membership tests (DESIGN.md §4i): revive-schedule
// determinism, MembershipView / RemappedProtocol / ReplayLog units,
// generation-tagged envelopes, epoch-boundary tree reparation over
// survivors, the continuous crash+revive convergence soak on both
// executors, and the streaming repair coordinator. Registered under the
// `recovery-smoke` ctest label (also `sanitize`, so the asan/tsan presets
// soak the repair paths).

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

// --- replay log -------------------------------------------------------------

TEST(ReplayLog, CoversAContiguousSuffixAndEvictsAtCapacity) {
  ReplayLog log(4);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.covers(0));
  for (std::int64_t e = 10; e < 16; ++e) log.append(e, e * 100);
  EXPECT_EQ(log.size(), 4u);  // 10 and 11 evicted by the bound
  EXPECT_EQ(log.first_epoch(), 12);
  EXPECT_EQ(log.last_epoch(), 15);
  EXPECT_FALSE(log.covers(11));
  EXPECT_TRUE(log.covers(12));
  EXPECT_TRUE(log.covers(15));
  EXPECT_FALSE(log.covers(16));
  EXPECT_EQ(log.payload_of(13), 1300);
}

TEST(ReplayLog, ChoosesReplayAtExactlyLogDepthAndTransferOneBeyond) {
  // The measure_recovery rejoin decision is `log.covers(since_epoch)` at the
  // boundary before epoch `idx`: one record is sealed per epoch, so a depth-D
  // log holds [idx-D, idx-1] and the flip between "replay the outage" and
  // "outage outran the log -> state transfer" sits exactly at outage == D.
  // The rest of the suite covers only the far ends (64-deep always-replay
  // soaks, streams that always transfer); this pins the boundary itself.
  constexpr std::size_t kDepth = 8;
  ReplayLog log(kDepth);
  const std::int64_t idx = 40;  // rejoin boundary: epochs [0, idx) sealed
  for (std::int64_t e = 0; e < idx; ++e) log.append(e, e * 10);
  ASSERT_EQ(log.size(), kDepth);

  // Outage of exactly kDepth epochs: crashed in idx-kDepth, missed
  // [idx-kDepth, idx-1] — still covered, and every missed payload is
  // reproducible, so replay is chosen.
  const std::int64_t exact = idx - static_cast<std::int64_t>(kDepth);
  EXPECT_TRUE(log.covers(exact));
  for (std::int64_t e = exact; e < idx; ++e) {
    EXPECT_EQ(log.payload_of(e), e * 10);
  }

  // One epoch longer and the first missed record has been evicted: replay
  // would hand back a hole, so the harness must take the state transfer.
  EXPECT_FALSE(log.covers(exact - 1));

  // The boundary tracks eviction: sealing one more epoch shifts the flip
  // point by one, atomically.
  log.append(idx, idx * 10);
  EXPECT_FALSE(log.covers(exact));
  EXPECT_TRUE(log.covers(exact + 1));
}

TEST(ReplayLog, TruncatesAndRejectsOutOfOrderEpochs) {
  ReplayLog log(16);
  for (std::int64_t e = 0; e < 6; ++e) log.append(e, e);
  log.truncate_below(4);
  EXPECT_EQ(log.first_epoch(), 4);
  EXPECT_TRUE(log.covers(5));
  EXPECT_FALSE(log.covers(3));
  EXPECT_THROW(log.append(2, 0), std::logic_error);  // epochs only move forward
  log.clear();  // quiescence truncation
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.covers(5));
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
  for (const StreamEpoch& epoch : result.raw.epochs) {
    dead_at_start += epoch.dead_at_start;
    // Corpses are excluded from the live set, never double-counted.
    EXPECT_LE(epoch.dead_at_start + epoch.crashed, procs);
  }
  EXPECT_GT(dead_at_start, 0);
  EXPECT_GT(result.deliveries, 0);
}

}  // namespace
}  // namespace ct::rt
