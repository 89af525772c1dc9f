// RunSpec layer tests (DESIGN.md §4e): the string round-trip property over
// every axis, rejection diagnostics for malformed specs, and tiny exp::run
// smokes per (executor x protocol) cell plus the stream, chunk and chaos
// paths — the "spec-smoke" ctest label. The acceptance property of the
// layer is that one spec string runs unmodified under exec=sim and
// exec=rt-* and yields the same RunRecord.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/run_spec.hpp"
#include "support/rng.hpp"

namespace ct::exp {
namespace {

RunSpec base_spec(topo::Rank procs = 64) {
  RunSpec spec;
  spec.params.P = procs;
  return spec;
}

// --- round-trip property -------------------------------------------------

void expect_roundtrip(const RunSpec& spec) {
  const std::string text = spec.to_string();
  SCOPED_TRACE(text);
  const RunSpec parsed = parse_run_spec(text);
  EXPECT_EQ(parsed, spec);
  // Canonical form is a fixed point.
  EXPECT_EQ(parsed.to_string(), text);
}

TEST(RunSpecRoundTrip, Defaults) { expect_roundtrip(base_spec()); }

TEST(RunSpecRoundTrip, EveryCollective) {
  for (const Collective c :
       {Collective::kBroadcast, Collective::kReduce, Collective::kAllreduce}) {
    RunSpec spec = base_spec();
    spec.collective = c;
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryExecutor) {
  for (const Executor e : {Executor::kSim, Executor::kRtSharded}) {
    RunSpec spec = base_spec();
    spec.executor = e;
    expect_roundtrip(spec);
    if (e != Executor::kSim) {
      spec.workers = 8;
      expect_roundtrip(spec);
    }
  }
}

TEST(RunSpecRoundTrip, RtShardedCrossShardKnobs) {
  // The cross-shard executor option ':mesh-cap=N' (per-pair ring capacity).
  RunSpec spec = base_spec();
  spec.executor = Executor::kRtSharded;
  spec.workers = 8;
  spec.rt_mesh_capacity = 64;
  expect_roundtrip(spec);
  spec.rt_mesh_capacity = 2;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, EveryProtocol) {
  for (const ProtocolKind p : {ProtocolKind::kCorrectedTree, ProtocolKind::kAckTree,
                               ProtocolKind::kGossip}) {
    RunSpec spec = base_spec();
    spec.protocol = p;
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryTreeFamily) {
  for (const char* tree : {"binomial", "binomial-inorder", "kary:3", "kary-inorder:4",
                           "lame:2", "optimal"}) {
    RunSpec spec = base_spec();
    spec.tree = topo::parse_tree_spec(tree);
    expect_roundtrip(spec);
  }
}

TEST(RunSpecRoundTrip, EveryCorrectionKindStartAndDirection) {
  for (const proto::CorrectionKind kind :
       {proto::CorrectionKind::kNone, proto::CorrectionKind::kOpportunistic,
        proto::CorrectionKind::kOptimizedOpportunistic, proto::CorrectionKind::kChecked,
        proto::CorrectionKind::kFailureProof, proto::CorrectionKind::kDelayed}) {
    for (const proto::CorrectionStart start :
         {proto::CorrectionStart::kSynchronized, proto::CorrectionStart::kOverlapped}) {
      for (const proto::CorrectionDirections dir :
           {proto::CorrectionDirections::kBoth, proto::CorrectionDirections::kLeftOnly}) {
        RunSpec spec = base_spec();
        spec.correction.kind = kind;
        spec.correction.start = start;
        spec.correction.directions = dir;
        // The :d head token exists only for the opportunistic kinds; other
        // kinds keep the (unused) default so the round-trip is exact.
        if (kind == proto::CorrectionKind::kOpportunistic ||
            kind == proto::CorrectionKind::kOptimizedOpportunistic) {
          spec.correction.distance = 2;
        }
        expect_roundtrip(spec);
      }
    }
  }
}

TEST(RunSpecRoundTrip, AllKeyValueAxes) {
  RunSpec spec = base_spec(1024);
  spec.params.L = 7;
  spec.params.o = 2;
  spec.params.g = 3;
  spec.params.G = 1;
  spec.params.O = 1;
  spec.params.bytes = 64;
  spec.correction.kind = proto::CorrectionKind::kDelayed;
  spec.correction.delay = 123;
  spec.correction.sync_time = 55;
  spec.correction.redundancy = 3;
  spec.faults.count = 17;
  spec.faults.fraction = 0.02;
  spec.faults.gap_limit = 8;
  spec.faults.kill = {3, 9, 11};
  spec.faults.chaos_seed = 0xC0FFEE;
  spec.faults.crash_fraction = 0.015625;
  spec.faults.crash_window_us = 750;
  spec.faults.drop_prob = 0.01;
  spec.faults.delay_prob = 0.25;
  spec.faults.duplicate_prob = 0.001;
  spec.faults.delay_us = 333;
  spec.reps = 7;
  spec.warmup = 0;
  spec.seed = 42;
  spec.deadline_ms = 400;
  spec.executor = Executor::kRtSharded;
  spec.workers = 4;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, GossipBudgets) {
  RunSpec spec = base_spec();
  spec.protocol = ProtocolKind::kGossip;
  spec.gossip_rounds = 9;
  expect_roundtrip(spec);
  spec.gossip_rounds = 0;
  spec.gossip_time = 60;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, ReduceDistance) {
  RunSpec spec = base_spec();
  spec.collective = Collective::kAllreduce;
  spec.reduce_distance = 3;
  expect_roundtrip(spec);
}

TEST(RunSpecRoundTrip, RepairAndReviveAxes) {
  // PR9 self-healing axes: repair alone, repair + a revive schedule, and
  // the fixed-outage variant.
  RunSpec spec = base_spec();
  spec.executor = Executor::kRtSharded;
  spec.faults.repair = true;
  expect_roundtrip(spec);
  spec.faults.chaos_seed = 0xBEEF;
  spec.faults.crash_fraction = 0.02;
  spec.faults.revive_fraction = 0.5;
  expect_roundtrip(spec);
  spec.faults.revive_fraction = 1.0;
  spec.faults.revive_after_us = 1500;
  expect_roundtrip(spec);
  // kill= as the crash source works too.
  spec = base_spec();
  spec.executor = Executor::kRtSharded;
  spec.faults.kill = {3, 9};
  spec.faults.repair = true;
  spec.faults.revive_fraction = 1.0;
  expect_roundtrip(spec);
}

TEST(RunSpecParse, AcceptsConveniences) {
  // Percent fractions, key order, aliases.
  const RunSpec a = parse_run_spec("bcast:binomial:checked:overlapped@P=256,f=2%");
  EXPECT_DOUBLE_EQ(a.faults.fraction, 0.02);
  const RunSpec b = parse_run_spec("broadcast:binomial:checked:sync@f=0.02,P=256");
  EXPECT_EQ(a.faults.fraction, b.faults.fraction);
  EXPECT_EQ(b.correction.start, proto::CorrectionStart::kSynchronized);
}

TEST(RunSpecParse, AcceptanceExampleSpecString) {
  const RunSpec spec = parse_run_spec(
      "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=rt-sharded:w=8");
  EXPECT_EQ(spec.collective, Collective::kBroadcast);
  EXPECT_EQ(spec.correction.kind, proto::CorrectionKind::kChecked);
  EXPECT_EQ(spec.params.P, 1024);
  EXPECT_EQ(spec.executor, Executor::kRtSharded);
  EXPECT_EQ(spec.workers, 8);
}

TEST(RunSpecParse, RtUdpExecutorTokensRoundTrip) {
  const RunSpec spec = parse_run_spec(
      "bcast:binomial:checked:overlapped@P=256,exec=rt-udp:port-base=9000:procs=8");
  EXPECT_EQ(spec.executor, Executor::kRtUdp);
  EXPECT_EQ(spec.rt_port_base, 9000);
  EXPECT_EQ(spec.rt_procs, 8);
  EXPECT_EQ(parse_run_spec(spec.to_string()), spec);
  // Kernel-assigned ports and the default process count are canonical: the
  // bare executor name round-trips with no suffix.
  const RunSpec bare =
      parse_run_spec("bcast:binomial:checked:overlapped@P=256,exec=rt-udp");
  EXPECT_EQ(bare.rt_port_base, 0);
  EXPECT_EQ(bare.rt_procs, 0);
  EXPECT_NE(bare.to_string().find("exec=rt-udp"), std::string::npos);
  EXPECT_EQ(bare.to_string().find("port-base"), std::string::npos);
  EXPECT_EQ(bare.to_string().find("procs="), std::string::npos);
}

// --- rejection diagnostics ----------------------------------------------

void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    parse_run_spec(text);
    FAIL() << "expected rejection of '" << text << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message for '" << text << "' was: " << e.what();
  }
}

TEST(RunSpecParse, RejectsMalformedSpecs) {
  expect_rejected("", "not a spec");
  expect_rejected("bcast:binomial", "not a spec");
  expect_rejected("mcast:binomial:checked:overlapped@P=8", "unknown collective");
  expect_rejected("bcast:quadtree:checked:overlapped@P=8", "quadtree");
  expect_rejected("bcast:binomial:sometimes:overlapped@P=8", "sometimes");
  expect_rejected("bcast:binomial:checked:never@P=8", "correction start");
  expect_rejected("bcast:binomial:checked:overlapped:extra@P=8", "trailing token");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,zzz=1", "unknown parameter");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,reps", "key=value");
  expect_rejected("bcast:binomial:checked:overlapped@P=abc", "integer");
  // An integer past its field's type is rejected naming the key, never
  // narrowed (P=4294967360 once ran as P=64).
  expect_rejected("bcast:binomial:checked:overlapped@P=4294967360", "'P' wants an integer in");
  expect_rejected("bcast:binomial:failure-proof:overlapped@P=8,redundancy=4294967297",
                  "'redundancy' wants an integer in");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,faults=4294967298",
                  "'faults' wants an integer in");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,kill=3+4294967299",
                  "'kill' wants an integer in");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:w=4294967300",
                  "'exec:w' wants an integer in");
  expect_rejected("bcast:kary:4294967301:checked:overlapped@P=8", "'arity' wants an integer in");
  // The ':<d>' head token belongs to the opportunistic kinds; elsewhere it
  // would vanish from the canonical string.
  expect_rejected("bcast:binomial:checked:4:overlapped@P=8", "opportunistic kinds only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,f=banana", "number");
  expect_rejected("bcast:binomial:checked:overlapped@reps=3", "P=");
  // The unknown-executor diagnostic must enumerate the full valid set.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=gpu",
                  "sim|rt-sharded|rt-udp");
  // The thread-per-rank executor, the locked inbox and thread pinning are
  // gone; each token names its removal and points at what remains.
  for (const char* exec : {"rt-tpr", "rt-thread-per-rank", "rt-sharded:inbox",
                           "rt-sharded:pin"}) {
    const std::string spec =
        std::string("bcast:binomial:checked:overlapped@P=8,exec=") + exec;
    expect_rejected(spec, "removed");
    expect_rejected(spec, "use exec=rt-sharded or exec=rt-udp");
  }
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:x=2",
                  "executor option");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:w=2", "ThreadPool");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:mesh-cap=0",
                  "mesh-cap must be >= 1");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:mesh-cap=4",
                  "rt-sharded only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:mesh-cap=4",
                  "rt-sharded only");
  // rt-udp knobs: processes are counted via ':procs=', and the knobs apply
  // to that executor alone.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:w=4",
                  "':procs='");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:procs=4",
                  "rt-udp only");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=sim:port-base=9000",
                  "rt-udp only");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,exec=rt-udp:port-base=70000",
      "[0, 65535]");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-udp:procs=100",
                  "[1, 64]");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,exec=rt-udp:port-base=65530:procs=10",
      "port space");
}

TEST(RunSpecParse, RejectsInconsistentAxes) {
  expect_rejected("bcast:binomial:checked:overlapped@P=8,kill=0", "root");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,kill=9", "out of range");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,f=1.5", "fraction");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,drop-prob=2", "probabilities");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,reps=0", "reps");
  // Values exp::run or a protocol constructor would refuse later.
  expect_rejected("bcast:binomial:opportunistic:-1:overlapped@P=8",
                  "correction distance (':<d>') must be >= 0");
  expect_rejected("bcast:binomial:failure-proof:overlapped@P=8,redundancy=0",
                  "redundancy must be >= 1");
  expect_rejected("bcast:binomial:delayed:overlapped@P=8,delay=-1", "delay must be >= 0");
  expect_rejected("bcast:binomial:checked:sync@P=8,proto=gossip,gossip-time=0",
                  "gossip-time must be >= 1");
  expect_rejected("reduce:binomial:checked:overlapped@P=8,rdist=-1", "rdist must be >= 0");
  expect_rejected("allreduce:binomial:checked:overlapped@P=8,rdist=-1", "rdist must be >= 0");
  // Values to_string() could not print back.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,proto=gossip,gossip-rounds=-2",
                  "gossip-rounds must be >= 0");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,gap=-2", "gap must be >= 0");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,exec=rt-sharded:w=-3",
                  "exec:w must be >= 0");
  // Negative times that mean nothing.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,deadline-ms=-5,exec=rt-sharded",
                  "deadline-ms must be >= 0");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,crash-window-us=-5,exec=rt-sharded",
                  "crash-window-us must be >= 0");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,delay-us=-5,exec=rt-sharded",
                  "delay-us must be >= 0");
  // Times past a day, which overflow int64_t on their way to nanoseconds.
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,crash-frac=0.5,"
      "crash-window-us=9300000000000000,exec=rt-sharded:w=2",
      "crash-window-us must be <= 86400000000");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,deadline-ms=9223372036854775807,"
      "exec=rt-sharded",
      "deadline-ms must be <= 86400000");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,delay-us=86400000001,exec=rt-sharded",
                  "delay-us must be <= 86400000000");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-frac=1,crash-frac=2%,"
      "revive-after-us=86400000001,exec=rt-sharded",
      "revive-after-us must be <= 86400000000");
  for (const char* at_ceiling :
       {"crash-window-us=86400000000,exec=rt-sharded", "delay-us=86400000000,exec=rt-sharded",
        "repair=1,revive-frac=1,crash-frac=2%,revive-after-us=86400000000,exec=rt-sharded",
        "deadline-ms=86400000,exec=rt-sharded"}) {
    SCOPED_TRACE(at_ceiling);
    EXPECT_NO_THROW(exp::parse_run_spec(
        std::string("bcast:binomial:checked:overlapped@P=8,") + at_ceiling));
  }
  expect_rejected("bcast:binomial:checked:sync@P=8,sync=-4", "sync must be >= 0");
  expect_rejected("reduce:binomial:checked:overlapped@P=8,exec=rt-sharded",
                  "exec=sim");
  expect_rejected("reduce:binomial:checked:overlapped@P=8,proto=gossip",
                  "reduce/allreduce");
  // Only the sim derives a synchronized start time; a runtime needs sync=.
  expect_rejected("bcast:binomial:checked:sync@P=64,reps=2,exec=rt-sharded:w=2",
                  "sync=<ns>");
  expect_rejected("bcast:binomial:checked:sync@P=64,reps=2,exec=rt-udp:procs=2",
                  "sync=<ns>");
  EXPECT_NO_THROW(exp::parse_run_spec(
      "bcast:binomial:checked:sync@P=64,sync=300000,reps=2,exec=rt-sharded:w=2"));
  // A stream's epochs share one clock, so a synchronized start has passed
  // for every epoch after the first; the sim also runs chunk= as a stream.
  for (const char* stream : {"window=4,exec=sim", "window=4,rate=1000,exec=sim",
                             "window=4,sync=300000,exec=rt-sharded"}) {
    expect_rejected(std::string("bcast:binomial:checked:sync@P=64,") + stream,
                    "window/rate");
  }
  expect_rejected("bcast:binomial:checked:sync@P=64,bytes=4096,chunk=1024,exec=sim",
                  "chunk=");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,proto=gossip,gap=4",
                  "tree protocol");
  // PR9 self-healing axes: repair is a wall-clock (rt) concept, and the
  // revive knobs form a dependency chain repair=1 -> revive-frac ->
  // revive-after-us with a crash source required to ever fire.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,repair=1",
                  "exec=rt-sharded");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,revive-frac=1,crash-frac=2%,"
      "exec=rt-sharded",
      "repair=1");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-frac=1.5,"
      "crash-frac=2%,exec=rt-sharded",
      "revive-frac");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-frac=1,"
      "exec=rt-sharded",
      "crash source");
  expect_rejected(
      "bcast:binomial:checked:overlapped@P=8,repair=1,revive-after-us=100,"
      "crash-frac=2%,exec=rt-sharded",
      "revive-frac > 0");
  // rt-udp runs fixed membership: no repair, no streaming window.
  expect_rejected("bcast:binomial:checked:overlapped@P=8,repair=1,exec=rt-udp",
                  "membership");
  expect_rejected("bcast:binomial:checked:overlapped@P=8,window=4,exec=rt-udp",
                  "windowed executor");
}

// --- exp::run smoke: tiny cells per executor and path --------------------

TEST(SpecSmoke, SimExecutorAllProtocols) {
  for (const char* text :
       {"bcast:binomial:checked:overlapped@P=24,kill=5,reps=2,exec=sim",
        "bcast:binomial:none:overlapped@P=24,proto=ack,reps=2,exec=sim",
        "bcast:binomial:checked:overlapped@P=24,proto=gossip,gossip-rounds=6,reps=2,"
        "exec=sim",
        // A windowed stream: every epoch multiplexed on one event queue.
        "bcast:binomial:opportunistic:4:overlapped@P=256,reps=8,window=4,exec=sim"}) {
    SCOPED_TRACE(text);
    const RunSpec spec = parse_run_spec(text);
    const RunRecord record = run(spec);
    EXPECT_EQ(record.executor, "sim");
    EXPECT_EQ(record.runs, spec.reps);
    EXPECT_EQ(record.latency_unit, "ticks");
    EXPECT_GT(record.latency_p50, 0.0);
    EXPECT_GT(record.messages_per_process, 0.0);
  }
}

TEST(SpecSmoke, SimReduceAndAllreduce) {
  const RunRecord reduce =
      run(parse_run_spec("reduce:kary-inorder:3:checked:overlapped@P=24,reps=2"));
  EXPECT_EQ(reduce.incomplete, 0);
  EXPECT_GT(reduce.latency_p50, 0.0);

  const RunRecord allreduce = run(
      parse_run_spec("allreduce:kary-inorder:3:checked:overlapped@P=24,kill=7,reps=2"));
  EXPECT_EQ(allreduce.incomplete, 0);
  EXPECT_EQ(allreduce.crashed_ranks, std::vector<topo::Rank>{7});
  EXPECT_TRUE(allreduce.uncolored_survivors.empty());

  // A synchronized result broadcast defaults to the root's gather deadline
  // plus the dissemination span.
  for (const char* text : {"allreduce:binomial:checked:sync@P=64,exec=sim",
                           "allreduce:binomial:checked:sync@P=64,kill=7,exec=sim"}) {
    SCOPED_TRACE(text);
    const RunSpec spec = parse_run_spec(text);
    const RunRecord record = run(spec);
    EXPECT_EQ(record.runs, spec.reps);
    EXPECT_EQ(record.incomplete, 0);
    EXPECT_TRUE(record.uncolored_survivors.empty());
  }

  // An explicit sync= must not precede the gather deadline (76 at P=64):
  // the result broadcast would arm its correction timers in the past.
  // validate() refuses it, so the spec never reaches run().
  expect_rejected("allreduce:binomial:checked:sync@P=64,sync=5,exec=sim", "gather deadline");
  const RunRecord at_deadline =
      run(parse_run_spec("allreduce:binomial:checked:sync@P=64,sync=76,reps=20,exec=sim"));
  EXPECT_EQ(at_deadline.runs, 20);
  EXPECT_EQ(at_deadline.incomplete, 0);
}

TEST(SpecSmoke, RtShardedExecutorAllProtocols) {
  for (const char* text :
       {"bcast:binomial:checked:overlapped@P=24,kill=5,reps=2,warmup=1,"
        "exec=rt-sharded:w=4",
        "bcast:binomial:none:overlapped@P=24,proto=ack,reps=2,warmup=1,"
        "exec=rt-sharded:w=4",
        "bcast:binomial:checked:overlapped@P=24,proto=gossip,gossip-rounds=6,reps=2,"
        "warmup=1,exec=rt-sharded:w=4",
        // An open-loop stream through the window slots, and a closed-loop
        // one carrying each epoch's payload as four pipelined chunks.
        "bcast:binomial:opportunistic:4:overlapped@P=256,reps=8,deadline-ms=10000,"
        "window=4,rate=200,exec=rt-sharded",
        "bcast:binomial:opportunistic:4:overlapped@P=256,bytes=16384,reps=8,"
        "deadline-ms=10000,window=4,chunk=4096,exec=rt-sharded",
        // Mid-epoch crashes plus dropped messages under checked correction.
        "bcast:binomial:checked:overlapped@P=256,chaos-seed=1592614637,crash-frac=0.02,"
        "drop-prob=0.01,reps=9,warmup=1,deadline-ms=2000,exec=rt-sharded"}) {
    SCOPED_TRACE(text);
    const RunSpec spec = parse_run_spec(text);
    const RunRecord record = run(spec);
    EXPECT_EQ(record.executor, "rt-sharded");
    EXPECT_EQ(record.runs, spec.reps);
    EXPECT_EQ(record.latency_unit, "us");
    EXPECT_EQ(record.timeouts, 0);
    EXPECT_GT(record.latency_p50, 0.0);
    EXPECT_GT(record.messages_per_process, 0.0);
  }
}

TEST(SpecSmoke, RtThreadPerRankExecutor) {
  // A spec written for the removed thread-per-rank executor fails before
  // anything runs, instead of silently running on another substrate.
  EXPECT_THROW(run(parse_run_spec(
                   "bcast:binomial:checked:overlapped@P=16,reps=2,warmup=1,exec=rt-tpr")),
               std::invalid_argument);
}

TEST(SpecSmoke, RtAllreduce) {
  // 1 tick = 50 µs keeps the reduce timetable comfortably ahead of real
  // thread wakeups (see DESIGN.md §4e).
  const RunRecord record = run(parse_run_spec(
      "allreduce:kary-inorder:3:checked:overlapped@P=16,L=100000,o=50000,g=50000,"
      "reps=2,warmup=1,exec=rt-sharded:w=4"));
  EXPECT_EQ(record.incomplete, 0);
  EXPECT_EQ(record.timeouts, 0);
}

TEST(SpecSmoke, RtRepairRecoveryCell) {
  // The PR9 recovery path end-to-end through the spec layer: persistent
  // crashes, boundary repair, immediate revive. kill= overrides fire at
  // ns 0 of every epoch (crash-frac would be timing-dependent: a fast
  // epoch can retire before its scheduled crash instant), so each epoch
  // deterministically kills the victims, repairs at the boundary, and
  // readmits them — the run ends converged.
  const RunRecord record = run(parse_run_spec(
      "bcast:binomial:checked:overlapped@P=96,kill=5+9,repair=1,"
      "revive-frac=1,reps=6,warmup=1,exec=rt-sharded:w=4"));
  EXPECT_EQ(record.runs, 6);
  EXPECT_EQ(record.timeouts, 0);
  EXPECT_GT(record.ranks_crashed, 0);
  EXPECT_GT(record.repairs, 0);
  EXPECT_GT(record.rejoins, 0);
  EXPECT_LE(record.epochs_to_converge, 3);
}

TEST(SpecSmoke, MetricKeysIdenticalAcrossExecutors) {
  const std::string cell = "bcast:binomial:checked:overlapped@P=24,kill=5,reps=2";
  const RunRecord sim_record = run(parse_run_spec(cell + ",exec=sim"));
  const RunRecord rt_record =
      run(parse_run_spec(cell + ",warmup=1,exec=rt-sharded:w=4"));
  // Chaos tallies exist under sim but read zero (except realised crashes).
  EXPECT_EQ(sim_record.messages_dropped, 0);
  EXPECT_EQ(sim_record.timeouts, 0);
  EXPECT_EQ(sim_record.ranks_crashed, 2);  // kill=5 realised in both reps
  // The identical victim set is realised on both substrates.
  EXPECT_EQ(sim_record.crashed_ranks, rt_record.crashed_ranks);
}

TEST(SpecSmoke, DeterministicUnderSim) {
  const char* cell =
      "bcast:binomial:opportunistic:2:overlapped@P=48,f=0.1,reps=4,seed=7";
  const RunRecord a = run(parse_run_spec(cell));
  const RunRecord b = run(parse_run_spec(cell));
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.messages_per_process, b.messages_per_process);
  EXPECT_EQ(a.uncolored_survivors, b.uncolored_survivors);
}

// --- generated cells: the sim-only slice of the RunSpec fuzzer ------------

/// Every numeric axis of a sim cell: the head's distance plus the keys.
const std::vector<std::string> kNumericAxes = {
    "P",     "distance",   "L",             "o",           "g",     "bytes",
    "G",     "O",          "delay",         "sync",        "redundancy",
    "gossip-rounds",       "gossip-time",   "rdist",       "faults", "f",
    "gap",   "kill",       "reps",          "window",      "rate",  "chunk"};

/// One exec=sim spec string over every head token and every sim key. Even
/// cells draw valid values only; odd cells put one edge value — 0, -1 or
/// 2^32 + k (the floor, the sign, narrowing past 32 bits) — on one axis,
/// cycling through every (axis, edge) pair, and draw the head so that the
/// axis matters (redundancy under failure-proof, rdist under a reduction,
/// ...). reps stays in [1, 2], and so do the gossip budgets under
/// proto=gossip: a 2^32 budget there is 2^32 sends per rank, a run length
/// like reps, so those edges fall back to 0.
std::string draw_sim_cell(support::Xoshiro256ss& rng, int cell) {
  std::string axis;
  int edge = -1;
  if (cell % 2 == 1) {
    const auto slot = static_cast<std::size_t>(cell / 2);
    axis = kNumericAxes[slot % kNumericAxes.size()];
    edge = static_cast<int>(slot / kNumericAxes.size() % 3);
  }
  const auto value = [&](const std::string& key, std::int64_t valid) {
    if (key != axis) return std::to_string(valid);
    if (edge == 0) return std::string("0");
    if (edge == 1) return std::string("-1");
    if (key == "reps" || key.starts_with("gossip-")) return std::string("0");
    return std::to_string((std::int64_t{1} << 32) + rng.range(0, 64));
  };
  const auto pick = [&](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.below(options.size())]);
  };

  std::string collective = pick({"bcast", "bcast", "reduce", "allreduce"});
  if (axis == "rdist") collective = pick({"reduce", "allreduce"});
  const bool gossip = axis.starts_with("gossip-") || (collective == "bcast" && rng.chance(0.2));
  if (gossip || axis == "window" || axis == "rate" || axis == "chunk") collective = "bcast";
  std::string kind = pick({"none", "opportunistic", "opportunistic-plain", "checked",
                           "failure-proof", "delayed"});
  if (axis == "distance") kind = pick({"opportunistic", "opportunistic-plain"});
  if (axis == "redundancy") kind = "failure-proof";
  if (axis == "delay") kind = "delayed";

  std::string text = collective;
  const std::string tree =
      pick({"binomial", "binomial-inorder", "kary", "kary-inorder", "lame", "optimal"});
  text += ':' + tree;
  if ((tree.starts_with("kary") || tree == "lame") && rng.chance(0.8)) {
    text += ':' + std::to_string(rng.range(2, 4));
  }
  text += ':' + kind;
  // The ':<d>' token belongs to the opportunistic kinds; a few draws put it
  // elsewhere, where it must be refused.
  if (axis == "distance" || rng.chance(kind.starts_with("opportunistic") ? 0.7 : 0.05)) {
    text += ':' + value("distance", rng.range(0, 6));
  }
  text += ':' + (axis == "sync" ? std::string("sync") : pick({"sync", "overlapped"}));
  if (rng.chance(0.25)) text += ":left";

  const std::int64_t procs = rng.range(2, 64);
  text += "@P=" + value("P", procs);
  if (gossip) {
    text += ",proto=gossip";
  } else if (axis != "gap" && rng.chance(collective == "bcast" ? 0.3 : 0.05)) {
    text += ",proto=" + pick({"tree", "ack"});
  }
  // Cross-axis rules refuse most streams off a tree broadcast and gap= off
  // a tree, so those keys come rarely there.
  const bool tree_bcast = collective == "bcast" && !gossip;
  const auto maybe = [&](const char* key, const std::string& valid, double chance = 0.3) {
    if (key == axis || rng.chance(chance)) text += std::string(",") + key + "=" + valid;
  };
  const auto maybe_int = [&](const char* key, std::int64_t lo, std::int64_t hi,
                             double chance = 0.3) {
    maybe(key, value(key, rng.range(lo, hi)), chance);
  };
  maybe_int("L", 0, 8);
  maybe_int("o", 1, 4);
  maybe_int("g", 0, 4);
  maybe_int("bytes", 1, 4096);
  maybe_int("G", 0, 2);
  maybe_int("O", 0, 2);
  maybe_int("delay", 1, 20);
  maybe_int("sync", 1, 200);
  maybe_int("redundancy", 1, 3);
  maybe_int("gossip-rounds", 1, 8);
  maybe_int("gossip-time", 1, 60);
  maybe_int("rdist", 0, 3);
  maybe_int("faults", 0, procs - 1);
  maybe("f", axis == "f" ? value("f", 0) : pick({"0.05", "0.2", "2%", "0.5"}));
  maybe_int("gap", 1, 8, gossip ? 0.05 : 0.3);
  std::string kill = value("kill", rng.range(1, procs - 1));
  if (rng.chance(0.5)) kill += '+' + std::to_string(rng.range(1, procs - 1));
  maybe("kill", kill);
  maybe_int("reps", 1, 2);
  const double stream_chance = tree_bcast ? 0.3 : 0.05;
  maybe_int("window", 1, 8, stream_chance);
  maybe("rate", axis == "rate" ? value("rate", 0) : pick({"500", "20000", "1e6"}),
        stream_chance);
  maybe_int("chunk", 1, 4096, stream_chance);
  return text + ",exec=sim";
}

TEST(RunSpecFuzz, ValidatedSimCellsRunAndRoundTrip) {
  // The oracle (ROADMAP item 7): parse_run_spec either refuses a cell with
  // std::invalid_argument, or the cell round-trips and runs. A cell that
  // validate() accepts and run() refuses is a bug in one of the two.
  support::Xoshiro256ss rng(0x5eedf022);
  int accepted = 0;
  for (int cell = 0; cell < 200; ++cell) {
    const std::string text = draw_sim_cell(rng, cell);
    const std::string replay = "replay: ct_sim \"" + text + "\"";
    RunSpec spec;
    try {
      spec = parse_run_spec(text);
    } catch (const std::invalid_argument&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << replay << "\n  parse threw a non-invalid_argument: " << e.what();
      continue;
    }
    ++accepted;
    try {
      EXPECT_EQ(parse_run_spec(spec.to_string()), spec) << replay;
      run(spec);
    } catch (const std::exception& e) {
      ADD_FAILURE() << replay << "\n  " << e.what();
    }
  }
  // Both halves of the oracle get exercised.
  EXPECT_GE(accepted, 60);
  EXPECT_LE(accepted, 170);

  // validate() itself, not only the parser, refuses a negative distance in
  // a spec built in code.
  RunSpec spec = base_spec();
  spec.correction.distance = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // The generator's first find: a sim stream whose only live rank is the
  // root retires each epoch inside its own admission, which once readmitted
  // the running epoch and crashed.
  for (const char* text :
       {"bcast:binomial:opportunistic:4:overlapped@P=4,faults=3,reps=3,window=2,exec=sim",
        "bcast:lame:checked:overlapped@P=4,kill=1+2+3,reps=2,chunk=1,exec=sim"}) {
    SCOPED_TRACE(text);
    const RunSpec stream = parse_run_spec(text);
    const RunRecord record = run(stream);
    EXPECT_EQ(record.runs, stream.reps);
    EXPECT_EQ(record.incomplete, 0);
  }
}

}  // namespace
}  // namespace ct::exp
