// SPSC mesh suite (DESIGN.md §4f), registered under the `sanitize` ctest
// label so the tsan preset runs it. Covers the ring primitive itself
// (wrap-around, prefix-accept backpressure, a two-thread FIFO stress), the
// staging queue that holds a ring's backlog, the engine built on top of
// them (capacity-1 rings with the chained-send bound, crashed-rank discard
// under chaos, shutdown while rings still hold mail),
// backpressured-mesh vs sim outcome equality across the six correction
// algorithms, the EngineOptions validation the mesh added, and the
// stepper's in-pass checkpoint that publishes cross-shard mail.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/run_spec.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/engine.hpp"
#include "rt/shard_queue.hpp"
#include "rt/stepper.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

Envelope make_envelope(std::int64_t payload) {
  return Envelope{
      sim::Message{.src = 0, .dst = 1, .tag = sim::tag::kTree, .payload = payload},
      /*tag=*/Envelope::make_tag(/*epoch=*/1, /*generation=*/0)};
}

proto::CorrectionConfig make_correction(proto::CorrectionKind kind) {
  proto::CorrectionConfig config;
  config.kind = kind;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = 4;
  return config;
}

/// Appends every pending envelope of `ring` to `out` through the consumer
/// path the engine uses; returns how many were claimed.
std::size_t drain(SpscRing& ring, std::vector<Envelope>& out) {
  return ring.consume_all([&](const Envelope& e) { out.push_back(e); });
}

TEST(SpscRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing(0).capacity(), 1u);  // engine rejects 0; the ring clamps
  EXPECT_EQ(SpscRing(1).capacity(), 1u);
  EXPECT_EQ(SpscRing(5).capacity(), 8u);
  EXPECT_EQ(SpscRing(1024).capacity(), 1024u);
}

TEST(SpscRing, WrapAroundPreservesFifoAcrossManyGenerations) {
  SpscRing ring(8);
  std::vector<Envelope> out;
  std::int64_t next_push = 0;
  std::int64_t next_pop = 0;
  // Push in batches of 3 against capacity 8 so head/tail lap the slot
  // array hundreds of times and every offset sees both roles.
  while (next_pop < 2000) {
    Envelope batch[3];
    for (int i = 0; i < 3; ++i) batch[i] = make_envelope(next_push + i);
    next_push += static_cast<std::int64_t>(ring.push_batch(batch, 3));
    out.clear();
    drain(ring, out);
    for (const Envelope& e : out) {
      ASSERT_EQ(e.msg.payload, next_pop);
      ++next_pop;
    }
  }
  EXPECT_GE(next_push, next_pop);
}

TEST(SpscRing, FullRingAcceptsAPrefixAndResumesAfterDrain) {
  SpscRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  std::vector<Envelope> batch;
  for (std::int64_t i = 0; i < 6; ++i) batch.push_back(make_envelope(i));
  // A full ring accepts exactly the free prefix — the producer keeps the
  // rest staged, which is the mesh's whole backpressure story.
  EXPECT_EQ(ring.push_batch(batch.data(), batch.size()), 4u);
  EXPECT_EQ(ring.push_batch(batch.data() + 4, 2), 0u);
  std::vector<Envelope> out;
  EXPECT_EQ(drain(ring, out), 4u);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].msg.payload, i);
  EXPECT_EQ(drain(ring, out), 0u);  // the drain emptied it
  EXPECT_EQ(ring.push_batch(batch.data() + 4, 2), 2u);
  out.clear();
  EXPECT_EQ(drain(ring, out), 2u);
  EXPECT_EQ(out[0].msg.payload, 4);
  EXPECT_EQ(out[1].msg.payload, 5);
}

TEST(SpscRing, ClearResetsBothSides) {
  SpscRing ring(2);
  const Envelope e = make_envelope(7);
  ASSERT_EQ(ring.push_batch(&e, 1), 1u);
  ring.clear();
  std::vector<Envelope> out;
  EXPECT_EQ(drain(ring, out), 0u);
  EXPECT_EQ(ring.push_batch(&e, 1), 1u);  // indices restart cleanly
  EXPECT_EQ(drain(ring, out), 1u);
}

TEST(StagedQueue, KeepsOrderAcrossBlocksUnderPartialAccepts) {
  // A backlog several blocks deep drains through a sender that takes at
  // most 1000 envelopes per call, with new staging between flushes: every
  // envelope goes out exactly once, in push order.
  StagedQueue staged;
  std::int64_t pushed = 0;
  std::vector<std::int64_t> sent;
  const auto push = [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) staged.push_back(make_envelope(pushed++));
  };
  const auto take = [&](const Envelope* data, std::size_t n) {
    const std::size_t accepted = std::min<std::size_t>(n, 1000);
    for (std::size_t i = 0; i < accepted; ++i) sent.push_back(data[i].msg.payload);
    return accepted;
  };
  push(3 * static_cast<std::int64_t>(StagedQueue::kBlock) + 17);
  for (int round = 0; !staged.empty(); ++round) {
    ASSERT_TRUE(staged.flush(take));
    if (round < 5) push(300);
  }
  ASSERT_EQ(sent.size(), static_cast<std::size_t>(pushed));
  for (std::size_t i = 0; i < sent.size(); ++i) ASSERT_EQ(sent[i], static_cast<std::int64_t>(i));
  EXPECT_FALSE(staged.flush(take));  // drained: nothing left to offer
  push(5);
  staged.clear();
  EXPECT_TRUE(staged.empty());
}

TEST(SpscRing, TwoThreadStressKeepsStrictFifo) {
  // The TSan-facing test: one producer, one consumer, a ring small enough
  // that backpressure and wrap-around fire constantly. Any missing
  // acquire/release pairing shows up as a torn payload or a data race.
  constexpr std::int64_t kTotal = 200'000;
  SpscRing ring(64);
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kTotal) {
      Envelope batch[16];
      const std::int64_t n = std::min<std::int64_t>(16, kTotal - sent);
      for (std::int64_t i = 0; i < n; ++i) batch[i] = make_envelope(sent + i);
      std::size_t accepted = 0;
      while (accepted < static_cast<std::size_t>(n)) {
        const std::size_t got =
            ring.push_batch(batch + accepted,
                            static_cast<std::size_t>(n) - accepted);
        accepted += got;
        if (got == 0) std::this_thread::yield();
      }
      sent += n;
    }
  });
  std::vector<Envelope> out;
  std::int64_t received = 0;
  while (received < kTotal) {
    out.clear();
    if (drain(ring, out) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const Envelope& e : out) {
      ASSERT_EQ(e.msg.payload, received);
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(drain(ring, out), 0u);
}

TEST(MeshEngine, CapacityOneRingsCompleteUnderBackpressure) {
  // mesh_capacity=1 is the worst case: every cross-shard batch degenerates
  // to one-envelope hops and almost every send stages and retries. The
  // chained-send bound (drain work discovered while flushing is deferred,
  // not recursed into) is what keeps this from livelocking; the assertion
  // is simply that epochs still complete and color everyone.
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;  // forces real cross-shard traffic even on 1 core
  options.mesh_capacity = 1;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
  }
}

TEST(MeshEngine, CrashedRankMailIsDiscardedUnderChaos) {
  // Mid-epoch crashes leave mail addressed to dead ranks in flight inside
  // the rings; the consumer must discard it (and balance the crash
  // bookkeeping) rather than deliver to a crashed rank or wedge. Tiny
  // rings keep plenty of envelopes staged at crash time.
  const Rank procs = 256;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosOptions chaos;
  chaos.seed = 0x6E57u;
  chaos.crash_fraction = 0.03;
  chaos.drop_prob = 0.01;
  chaos.delay_prob = 0.01;
  chaos.delay_ns = 100'000;
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t crashes = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(5));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    ASSERT_EQ(result.crashed_mid_epoch,
              static_cast<std::int32_t>(result.crashed_ranks.size()));
    crashes += result.crashed_mid_epoch;
  }
  EXPECT_GT(crashes, 0);  // 3% of 256 ranks over 12 epochs
}

TEST(MeshEngine, ShutdownAndEpochResetWithNonEmptyRings) {
  // Force a deadline expiry mid-broadcast so rings and staged buffers still
  // hold mail, then (a) run a clean epoch on the same engine — reset must
  // drop every stale-epoch leftover — and (b) end the scope with mail still
  // in flight so the destructor's shutdown path runs against non-empty
  // rings. The test passing at all (no hang, no sanitizer report) is the
  // assertion for (b).
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 2;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  const auto timeout = std::chrono::milliseconds(100);
  ChaosPlan plan;
  const Rank victim = tree.children(0)[0];
  plan.kill_at_ns(victim, 0);
  engine.set_chaos(std::move(plan));
  {
    // No correction + a dead first child: the subtree is unreachable, so
    // the epoch must end at its timeout with traffic still queued.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kNone));
    const EpochResult result = engine.run_epoch(protocol, timeout);
    ASSERT_TRUE(result.timed_out);
    EXPECT_GT(result.uncolored_live, 0);
  }
  {
    // Same engine, next epoch: checked correction reaches everyone, so a
    // single stale envelope surviving the reset would surface as a wrong
    // color or a sanitizer report.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kChecked));
    const EpochResult result = engine.run_epoch(protocol, timeout);
    ASSERT_FALSE(result.timed_out);
    EXPECT_EQ(result.uncolored_live, 0);
    EXPECT_EQ(result.crashed_ranks, std::vector<Rank>{victim});
  }
  {
    // Leave the engine dirty again right before destruction.
    proto::CorrectedTreeBroadcast protocol(
        tree, make_correction(proto::CorrectionKind::kNone));
    const EpochResult result = engine.run_epoch(protocol, timeout);
    ASSERT_TRUE(result.timed_out);
  }
}

// --- backpressured mesh vs sim: outcome equality across the six algorithms ---
//
// Spec-driven like the sim/rt parity suite (DESIGN.md §4e): the kill=
// victims die before sending anything, so the survivor-coloring outcome is
// the timing-independent coverage of the correction algorithm — identical
// on the simulator and on the runtime. The runtime side runs with
// mesh-cap=2 so the equality also holds under heavy backpressure.

std::string ab_cell(Rank procs, const std::vector<Rank>& victims,
                    proto::CorrectionKind kind) {
  std::string spec = "bcast:binomial:";
  spec += proto::correction_kind_name(kind);
  if (kind == proto::CorrectionKind::kOpportunistic ||
      kind == proto::CorrectionKind::kOptimizedOpportunistic) {
    spec += ":4";
  }
  spec += ":overlapped@P=" + std::to_string(procs);
  spec += ",kill=";
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (i) spec += '+';
    spec += std::to_string(victims[i]);
  }
  spec += ",reps=1,warmup=0";
  return spec;
}

std::vector<Rank> pick_victims(Rank procs, int count, support::Xoshiro256ss& rng) {
  std::vector<Rank> victims;
  while (static_cast<int>(victims.size()) < count) {
    const auto v =
        static_cast<Rank>(1 + rng.below(static_cast<std::uint64_t>(procs) - 1));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  std::sort(victims.begin(), victims.end());
  return victims;
}

TEST(MeshInboxParity, SixCorrectionAlgorithmsAgreeUnderCrashes) {
  const Rank procs = 24;
  const struct {
    proto::CorrectionKind kind;
    bool completes;  // guaranteed to color every survivor -> no timeout
  } kinds[] = {
      {proto::CorrectionKind::kNone, false},
      {proto::CorrectionKind::kOpportunistic, false},
      {proto::CorrectionKind::kOptimizedOpportunistic, false},
      {proto::CorrectionKind::kChecked, true},
      {proto::CorrectionKind::kFailureProof, true},
      {proto::CorrectionKind::kDelayed, true},
  };
  support::Xoshiro256ss rng(0x3E5Du);
  for (int scenario = 0; scenario < 2; ++scenario) {
    const std::vector<Rank> victims = pick_victims(procs, 2 + scenario, rng);
    for (const auto& k : kinds) {
      const std::string cell = ab_cell(procs, victims, k.kind);
      SCOPED_TRACE(cell);
      // Coverage-bounded corrections that cannot reach someone never
      // complete; bound those cells so the runtime stops at the deadline.
      const std::string deadline =
          k.completes ? std::string() : std::string("deadline-ms=400,");
      const exp::RunRecord expected = exp::run(exp::parse_run_spec(cell + ",exec=sim"));
      const exp::RunRecord mesh = exp::run(exp::parse_run_spec(
          cell + "," + deadline + "exec=rt-sharded:w=4:mesh-cap=2"));
      EXPECT_EQ(mesh.uncolored_survivors, expected.uncolored_survivors);
      EXPECT_EQ(mesh.crashed_ranks, expected.crashed_ranks);
      EXPECT_EQ(expected.crashed_ranks, victims);
      // A runtime epoch that leaves survivors uncolored ends at the
      // deadline, which the record counts as a timeout.
      EXPECT_EQ(mesh.incomplete + mesh.timeouts > 0, expected.incomplete > 0);
    }
  }
}

// --- EngineOptions validation added with the mesh ---

TEST(MeshOptions, ZeroCapacitiesAreRejectedUpFront) {
  const std::vector<char> none(8, 0);
  EngineOptions mesh_zero;
  mesh_zero.mesh_capacity = 0;
  EXPECT_THROW(Engine(8, none, mesh_zero), std::invalid_argument);
}

TEST(MeshOptions, WorkerCountIsClampedToRanksAndOversubscriptionCap) {
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  {
    // More workers than ranks: no empty shards.
    EngineOptions options;
    options.workers = 64;
    Engine engine(8, std::vector<char>(8, 0), options);
    EXPECT_EQ(engine.worker_threads(), 8u);
  }
  {
    // Absurd worker counts hit the oversubscription cap instead of building
    // a gigantic S² mesh. Small rings keep the clamp test cheap.
    EngineOptions options;
    options.workers = 100000;
    options.mesh_capacity = 2;
    Engine engine(256, std::vector<char>(256, 0), options);
    EXPECT_EQ(engine.worker_threads(),
              std::min<std::size_t>(256, std::max<std::size_t>(16, 8 * hw)));
  }
  {
    // workers <= 0 falls back to hardware concurrency (clamped to P; the
    // ceiling-division slicing may merge a remainder shard, hence LE).
    EngineOptions options;
    options.workers = -3;
    Engine engine(8, std::vector<char>(8, 0), options);
    EXPECT_GE(engine.worker_threads(), 1u);
    EXPECT_LE(engine.worker_threads(), std::min<std::size_t>(8, hw));
  }
}

// --- the stepper's in-pass checkpoint ---
//
// One shard stepped by hand over a fake Transport (the seam of DESIGN.md
// §4j): no mesh, no threads, only the batches the pass publishes.

/// Accepts every envelope and records each batch's size.
class BatchRecorder final : public Transport {
 public:
  std::size_t send_batch(std::size_t /*from*/, std::size_t /*to*/,
                         const Envelope* /*data*/, std::size_t n) override {
    batches.push_back(n);
    return n;
  }
  std::size_t poll_into(std::size_t /*to*/, const EnvelopeSink& /*sink*/) override {
    return 0;
  }
  void park(std::size_t /*to*/, std::chrono::nanoseconds /*timeout*/) override {}
  void kick(std::size_t /*to*/) override {}
  void clear() override {}

  std::vector<std::size_t> batches;
};

class NoOpDriver final : public Stepper::Driver {
 public:
  void slice_complete(Stepper::Shard& /*shard*/, Stepper::Slot& /*slot*/) override {}
};

/// begin() queues one send from every rank of the lower half to its
/// partner in the upper half; nothing else ever happens.
class SendsAcrossTheHalves final : public sim::Protocol {
 public:
  explicit SendsAcrossTheHalves(Rank half) : half_(half) {}
  void begin(sim::Context& ctx) override {
    for (Rank r = 0; r < half_; ++r) ctx.send(r, r + half_, sim::tag::kTree, r);
  }
  void on_receive(sim::Context& /*ctx*/, Rank /*me*/, const sim::Message& /*msg*/) override {}
  void on_sent(sim::Context& /*ctx*/, Rank /*me*/, const sim::Message& /*msg*/) override {}

 private:
  Rank half_;
};

TEST(StepperCheckpoint, APassPublishesCrossShardMailAtEveryCheckpoint) {
  // Shard 0 of two 4,096-rank slices seeds its slice and steps it in one
  // pass; every step stages one envelope for shard 1. Mail held to the pass
  // end goes out as one batch of 4,096, and shard 1 idles until then.
  const Rank procs = 8192;
  const std::size_t chunk = 4096;
  const std::vector<char> failed(static_cast<std::size_t>(procs), 0);
  BatchRecorder transport;
  NoOpDriver driver;
  Stepper stepper(procs, failed, chunk, 0, static_cast<Rank>(chunk), transport, driver);
  Stepper::Shard shard(0, chunk, failed, /*endpoints=*/2);
  SendsAcrossTheHalves protocol(static_cast<Rank>(chunk));

  stepper.open_window(1);
  Stepper::Slot& slot = stepper.slot(0);
  slot.epoch = 1;
  stepper.stage(shard, 0, 0, procs);
  stepper.start_clock();
  stepper.launch(slot, protocol, /*dead=*/nullptr, /*generation=*/0, /*timeout_ns=*/0);
  stepper.seed(shard, 0);
  bool expired = false;
  EXPECT_TRUE(stepper.pass(shard, /*deadline=*/0, expired));
  EXPECT_FALSE(expired);

  std::size_t published = 0;
  for (const std::size_t n : transport.batches) {
    EXPECT_LE(n, kStepCheckpoint);
    published += n;
  }
  EXPECT_EQ(published, chunk);
}

}  // namespace
}  // namespace ct::rt
