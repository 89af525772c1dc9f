// rt-udp tests (DESIGN.md §4j): perfect-links transport coverage over real
// loopback sockets, multi-process engine smoke, and the spec-driven
// sim <-> rt-udp survivor-coloring parity suite — the same oracle as the
// PR 5/6 parity tests — clean and under chaos-injected datagram drop.
// Registered under the `udp-smoke` ctest label; every test skips cleanly
// when loopback sockets are unavailable (container without AF_INET).
// Ports are never hardcoded: each socket binds 127.0.0.1:0 and the kernel
// assigns, so parallel ctest invocations cannot collide.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiment/run_spec.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/udp_engine.hpp"
#include "rt/udp_transport.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

/// A nonblocking UDP socket bound to a kernel-assigned loopback port.
struct BoundSocket {
  int fd = -1;
  std::uint16_t port = 0;

  ~BoundSocket() {
    if (fd >= 0) ::close(fd);
  }

  bool open() {
    fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return false;
    }
    port = ntohs(addr.sin_port);
    return true;
  }
};

/// A connected transport pair (peer 0 <-> peer 1) over two real sockets.
struct TransportPair {
  BoundSocket sock_a, sock_b;
  std::unique_ptr<UdpTransport> a, b;

  bool open(std::size_t window = 64) {
    if (!sock_a.open() || !sock_b.open()) return false;
    const std::vector<std::uint16_t> ports = {sock_a.port, sock_b.port};
    UdpTransport::Options oa;
    oa.fd = sock_a.fd;
    oa.self = 0;
    oa.peer_ports = ports;
    oa.window = window;
    UdpTransport::Options ob = oa;
    ob.fd = sock_b.fd;
    ob.self = 1;
    a = std::make_unique<UdpTransport>(oa);
    b = std::make_unique<UdpTransport>(ob);
    return true;
  }
};

Envelope test_envelope(std::int64_t payload) {
  sim::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.tag = sim::tag::kTree;
  msg.payload = payload;
  return Envelope(msg, Envelope::make_tag(/*epoch=*/1, /*generation=*/0));
}

/// Pumps both transports until `want` envelopes reached B or `budget`
/// elapsed; returns the payloads B saw, in delivery order.
std::vector<std::int64_t> pump_until(UdpTransport& a, UdpTransport& b,
                                     std::size_t want,
                                     std::chrono::milliseconds budget) {
  std::vector<std::int64_t> seen;
  auto collect = [&seen](const Envelope& envelope) {
    seen.push_back(envelope.msg.payload);
  };
  auto drop = [](const Envelope&) {};
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (seen.size() < want && std::chrono::steady_clock::now() < deadline) {
    a.flush(0);
    b.poll_into(1, collect);
    b.flush(1);               // acks (and any chaos-held frames) back to A
    a.poll_into(0, drop);     // retire A's window
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return seen;
}

TEST(UdpTransport, PerfectLinksDeliverExactlyOnceUnderHeavyDrop) {
  TransportPair pair;
  if (!pair.open()) GTEST_SKIP() << "no loopback sockets in this sandbox";

  // Half of all raw datagram transmissions are dropped below the links
  // layer; retransmission with fresh per-transmission verdicts must still
  // deliver every envelope exactly once. Order is NOT part of the contract:
  // a datagram past a dropped one is delivered immediately (selective
  // receive) while the gap is retransmitted — the protocols never needed
  // FIFO (both in-process executors already reorder cross-rank mail).
  ChaosOptions chaos;
  chaos.seed = 0xD0D0u;
  chaos.drop_prob = 0.5;
  const ChaosPlan plan(chaos);
  pair.a->set_link_chaos(&plan);
  pair.a->set_epoch(1);

  constexpr std::int64_t kCount = 500;
  std::vector<Envelope> batch;
  for (std::int64_t i = 0; i < kCount; ++i) batch.push_back(test_envelope(i));
  ASSERT_EQ(pair.a->send_batch(0, 1, batch.data(), batch.size()), batch.size());

  std::vector<std::int64_t> seen =
      pump_until(*pair.a, *pair.b, kCount, std::chrono::seconds(10));
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCount));
  std::sort(seen.begin(), seen.end());
  for (std::int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);  // exactly once each
  }
  EXPECT_GT(pair.a->chaos_dropped(), 0);
  EXPECT_GT(pair.a->retransmits(), 0);  // the drops had to be recovered
}

TEST(UdpTransport, DuplicatedDatagramsAreDroppedByDedup) {
  TransportPair pair;
  if (!pair.open()) GTEST_SKIP() << "no loopback sockets in this sandbox";

  // Every raw transmission is duplicated at the socket boundary; the
  // (peer, seq) filter must deliver each envelope once and count the rest.
  ChaosOptions chaos;
  chaos.seed = 0xBEEFu;
  chaos.duplicate_prob = 1.0;
  const ChaosPlan plan(chaos);
  pair.a->set_link_chaos(&plan);
  pair.a->set_epoch(1);

  constexpr std::int64_t kCount = 80;  // two full datagrams
  std::vector<Envelope> batch;
  for (std::int64_t i = 0; i < kCount; ++i) batch.push_back(test_envelope(i));
  ASSERT_EQ(pair.a->send_batch(0, 1, batch.data(), batch.size()), batch.size());

  const std::vector<std::int64_t> seen =
      pump_until(*pair.a, *pair.b, kCount, std::chrono::seconds(10));
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCount));
  EXPECT_GT(pair.a->chaos_duplicated(), 0);
  EXPECT_GT(pair.b->dup_drops(), 0);
}

TEST(UdpTransport, WindowBoundsInFlightDatagrams) {
  TransportPair pair;
  if (!pair.open(/*window=*/2)) {
    GTEST_SKIP() << "no loopback sockets in this sandbox";
  }

  // Five datagrams' worth staged, window 2: one flush may transmit exactly
  // two datagrams; the rest waits for acks.
  constexpr std::int64_t kCount = 5 * static_cast<std::int64_t>(kMaxEnvelopesPerDatagram);
  std::vector<Envelope> batch;
  for (std::int64_t i = 0; i < kCount; ++i) batch.push_back(test_envelope(i));
  ASSERT_EQ(pair.a->send_batch(0, 1, batch.data(), batch.size()), batch.size());
  pair.a->flush(0);
  EXPECT_EQ(pair.a->datagrams_sent(), 2);

  std::vector<std::int64_t> seen;
  auto collect = [&seen](const Envelope& e) { seen.push_back(e.msg.payload); };
  // Allow the two datagrams to arrive, then drain.
  for (int spin = 0; spin < 500 && seen.size() < 2 * kMaxEnvelopesPerDatagram;
       ++spin) {
    pair.b->poll_into(1, collect);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(seen.size(), 2 * kMaxEnvelopesPerDatagram);

  // Acks retire the window and the remaining three datagrams follow.
  const std::vector<std::int64_t> rest = pump_until(
      *pair.a, *pair.b, static_cast<std::size_t>(kCount) - seen.size(),
      std::chrono::seconds(10));
  EXPECT_EQ(seen.size() + rest.size(), static_cast<std::size_t>(kCount));
  EXPECT_TRUE(pair.a->idle());
}

TEST(UdpTransport, ParkHonoursSubMillisecondTimeouts) {
  TransportPair pair;
  if (!pair.open()) GTEST_SKIP() << "no loopback sockets in this sandbox";

  // An idle transport has no retransmit or release deadline, so a park waits
  // out its whole timeout — which must not round up to a millisecond.
  std::vector<std::int64_t> waits_us;
  for (int i = 0; i < 21; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pair.a->park(0, std::chrono::microseconds(200));
    waits_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::nth_element(waits_us.begin(), waits_us.begin() + 10, waits_us.end());
  EXPECT_LT(waits_us[10], 800) << "median of 21 parks of 200 us";
}

/// Waits up to `wait_ms` for a datagram on `fd`; true when one is queued.
bool readable(int fd, int wait_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, wait_ms) == 1;
}

/// The seq of the next datagram on `fd` within `wait_ms`; -1 when none came.
std::int64_t next_seq(int fd, int wait_ms) {
  std::uint8_t buffer[kMaxDatagramBytes];
  if (!readable(fd, wait_ms)) return -1;
  if (::recv(fd, buffer, sizeof(buffer), 0) < static_cast<ssize_t>(sizeof(UdpHeader))) {
    return -1;
  }
  UdpHeader header;
  std::memcpy(&header, buffer, sizeof(header));
  return header.seq;
}

/// Sends peer 0 an ack-only frame from peer 1, as peer 1's transport would.
void send_ack(int fd, std::uint16_t to_port, std::uint32_t ack_cum, std::uint64_t ack_bits) {
  UdpHeader header;
  header.magic = kUdpMagic;
  header.src = 1;
  header.kind = kUdpAckOnly;
  header.ack_cum = ack_cum;
  header.ack_bits = ack_bits;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(to_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::sendto(fd, &header, sizeof(header), 0, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr));
}

TEST(UdpTransport, SelectiveAckHoleRetransmitsAtTheNextFlush) {
  // A sends three datagrams (seq 1-3) to a raw socket standing in for peer 1.
  // An ack that holds seq 2 but not seq 1 exposes seq 1 as lost, so A's next
  // flush resends it, and only it: no acked seq lies past seq 3. The same
  // ack again resends nothing. The 2 ms retransmit timer would resend every
  // frame if the test stalled past it, so such an attempt proves nothing and
  // is retried on fresh sockets.
  auto drop = [](const Envelope&) {};
  for (int attempt = 0; attempt < 5; ++attempt) {
    TransportPair pair;
    if (!pair.open()) GTEST_SKIP() << "no loopback sockets in this sandbox";
    UdpTransport& a = *pair.a;
    const int raw = pair.sock_b.fd;

    std::vector<Envelope> batch;
    for (std::size_t i = 0; i < 3 * kMaxEnvelopesPerDatagram; ++i) {
      batch.push_back(test_envelope(static_cast<std::int64_t>(i)));
    }
    ASSERT_EQ(a.send_batch(0, 1, batch.data(), batch.size()), batch.size());
    const auto start = std::chrono::steady_clock::now();
    a.flush(0);
    std::vector<std::int64_t> sent;
    for (int i = 0; i < 3; ++i) sent.push_back(next_seq(raw, 1000));

    std::int64_t retransmits[2] = {0, 0};
    for (std::int64_t& after : retransmits) {
      send_ack(raw, pair.sock_a.port, /*ack_cum=*/0, /*ack_bits=*/0b10);
      ASSERT_TRUE(readable(pair.sock_a.fd, 1000));
      a.poll_into(0, drop);
      a.flush(0);
      after = a.retransmits();
    }
    if (std::chrono::steady_clock::now() - start >= std::chrono::milliseconds(2)) continue;

    EXPECT_EQ(sent, (std::vector<std::int64_t>{1, 2, 3}));
    EXPECT_EQ(retransmits[0], 1);  // the hole, at once
    EXPECT_EQ(retransmits[1], 1);  // once per frame; a lost resend is the timer's
    EXPECT_EQ(next_seq(raw, 1000), 1);
    EXPECT_EQ(next_seq(raw, 0), -1);  // seq 3 waits for its timer
    return;
  }
  GTEST_SKIP() << "every attempt stalled past the 2 ms retransmit timer";
}

// --- engine level ------------------------------------------------------------

TEST(UdpEngine, BroadcastEpochsCompleteAcrossProcesses) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;

  const Rank procs = 48;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  proto::CorrectionConfig correction;
  correction.kind = proto::CorrectionKind::kChecked;
  correction.start = proto::CorrectionStart::kOverlapped;

  UdpEngineOptions options;
  options.num_procs = procs;
  options.failed.assign(static_cast<std::size_t>(procs), 0);
  options.procs = 3;
  options.warmup = 1;
  options.iterations = 3;
  options.epoch_timeout = std::chrono::seconds(5);

  const UdpRunResult result = measure_broadcast_udp(options, [&]() {
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, correction);
  });
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.procs_used, 3);
  EXPECT_EQ(result.harness.iterations, 3);
  EXPECT_EQ(result.harness.timeouts, 0);
  EXPECT_EQ(result.harness.incomplete, 0);
  EXPECT_TRUE(result.harness.first.crashed_ranks.empty());
  EXPECT_TRUE(result.harness.first.uncolored_survivors.empty());
  EXPECT_GT(result.harness.total_messages, 0);
  EXPECT_FALSE(result.harness.latency_us.empty());
}

TEST(UdpEngine, SingleProcessDegeneratesToCoordinatorTalkingToItself) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;

  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  proto::CorrectionConfig correction;
  correction.kind = proto::CorrectionKind::kChecked;
  correction.start = proto::CorrectionStart::kOverlapped;

  UdpEngineOptions options;
  options.num_procs = procs;
  options.failed.assign(static_cast<std::size_t>(procs), 0);
  options.procs = 1;
  options.warmup = 0;
  options.iterations = 2;
  options.epoch_timeout = std::chrono::seconds(5);

  const UdpRunResult result = measure_broadcast_udp(options, [&]() {
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, correction);
  });
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.procs_used, 1);
  EXPECT_EQ(result.harness.iterations, 2);
  EXPECT_EQ(result.harness.incomplete, 0);
  // One process, no peers: nothing crosses the wire and nothing retransmits.
  EXPECT_EQ(result.harness.retransmits, 0);
  EXPECT_EQ(result.harness.dup_drops, 0);
}

TEST(UdpEngine, SpecCellWithMidEpochCrashesRunsEveryEpoch) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;
  // exp::run end to end across two worker processes: checked correction
  // with 2% of the ranks crashing mid-epoch.
  const exp::RunSpec spec = exp::parse_run_spec(
      "bcast:binomial:checked:overlapped@P=64,chaos-seed=1592614637,crash-frac=0.02,"
      "reps=9,warmup=1,deadline-ms=10000,exec=rt-udp:procs=2");
  const exp::RunRecord record = exp::run(spec);
  EXPECT_EQ(record.runs, spec.reps);
  EXPECT_EQ(record.timeouts, 0);
  EXPECT_GT(record.messages_per_process, 0.0);
}

// --- spec-driven parity (the PR 5/6 oracle) ---------------------------------

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

/// `bcast:binomial:<kind>:overlapped@P=<procs>`, distance 4 where the kind
/// takes one.
std::string cell_head(Rank procs, proto::CorrectionKind kind) {
  std::string spec = "bcast:binomial:";
  spec += proto::correction_kind_name(kind);
  if (kind == proto::CorrectionKind::kOpportunistic ||
      kind == proto::CorrectionKind::kOptimizedOpportunistic) {
    spec += ":4";
  }
  return spec + ":overlapped@P=" + std::to_string(procs);
}

/// One cell string per scenario, exactly as the sharded parity suite builds
/// them; `extra` appends chaos knobs shared by both substrates (sim ignores
/// link perturbations, so the cell string stays identical).
std::string parity_cell(Rank procs, const std::vector<Rank>& victims,
                        proto::CorrectionKind kind, const std::string& extra = "") {
  std::string spec = cell_head(procs, kind);
  spec += ",kill=";
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (i) spec += '+';
    spec += std::to_string(victims[i]);
  }
  spec += ",reps=1,warmup=0";
  if (!extra.empty()) spec += "," + extra;
  return spec;
}

exp::RunRecord run_cell(const std::string& cell, const std::string& executor) {
  return exp::run(exp::parse_run_spec(cell + "," + executor));
}

struct ParityKind {
  proto::CorrectionKind kind;
  bool completes;  // guaranteed to color every survivor -> no timeout
};

constexpr ParityKind kParityKinds[] = {
    {proto::CorrectionKind::kNone, false},
    {proto::CorrectionKind::kOpportunistic, false},
    {proto::CorrectionKind::kOptimizedOpportunistic, false},
    {proto::CorrectionKind::kChecked, true},
    {proto::CorrectionKind::kFailureProof, true},
    {proto::CorrectionKind::kDelayed, true},
};

void expect_parity(Rank procs, const std::vector<Rank>& victims,
                   const std::string& extra) {
  for (const ParityKind& k : kParityKinds) {
    const std::string cell = parity_cell(procs, victims, k.kind, extra);
    SCOPED_TRACE(cell);
    const exp::RunRecord expected = run_cell(cell, "exec=sim");
    // A coverage-bounded correction that cannot reach someone never
    // completes the epoch; bound that case with a short deadline. The
    // completion-guaranteed algorithms keep the default 10 s timeout,
    // which is never reached.
    const bool bounded = !k.completes && !expected.uncolored_survivors.empty();
    const exp::RunRecord actual = run_cell(
        cell, bounded ? std::string("deadline-ms=400,exec=rt-udp:procs=4")
                      : std::string("exec=rt-udp:procs=4"));
    EXPECT_EQ(actual.uncolored_survivors, expected.uncolored_survivors);
    EXPECT_EQ(actual.crashed_ranks, expected.crashed_ranks);
    EXPECT_EQ(expected.crashed_ranks, victims);
  }
}

TEST(UdpParity, SimAndRtUdpAgreeOnSurvivorColoringUnderMidBroadcastDeaths) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;
  const Rank procs = 24;
  support::Xoshiro256ss rng(0x9A17u);  // same stream as the sharded suite
  for (int scenario = 0; scenario < 2; ++scenario) {
    expect_parity(procs, pick_victims(procs, 1 + scenario % 3, rng), "");
  }
}

TEST(UdpParity, KillOfAStaticallyFailedRankIsNoMidRunCrash) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;
  // Seed 3's static sample of faults=3 already fails rank 7, so of the two
  // kill= victims only 11 dies mid-run, on the sim as across processes.
  const std::vector<Rank> victims = {7, 11};
  for (const ParityKind& k : kParityKinds) {
    const std::string cell = parity_cell(24, victims, k.kind, "faults=3,seed=3");
    SCOPED_TRACE(cell);
    const exp::RunRecord expected = run_cell(cell, "exec=sim");
    const exp::RunRecord actual = run_cell(
        cell, expected.uncolored_survivors.empty()
                  ? std::string("exec=rt-udp:procs=4")
                  : std::string("deadline-ms=400,exec=rt-udp:procs=4"));
    EXPECT_EQ(expected.crashed_ranks, std::vector<Rank>{11});
    EXPECT_EQ(expected.ranks_crashed, 1);
    EXPECT_EQ(actual.crashed_ranks, expected.crashed_ranks);
    EXPECT_EQ(actual.ranks_crashed, expected.ranks_crashed);
    EXPECT_EQ(actual.uncolored_survivors, expected.uncolored_survivors);
  }
}

/// The sharded count suite's fault-free cell; rt_chaos_test's count_cell
/// explains the delayed cell's delay.
std::string count_cell(proto::CorrectionKind kind) {
  const bool delayed = kind == proto::CorrectionKind::kDelayed;
  return cell_head(256, kind) + (delayed ? ",delay=100000000" : "") + ",reps=5,warmup=1";
}

TEST(UdpParity, FaultFreeMessagesPerProcessTrackTheSim) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;
  // The sharded suite's count band (CountParity in rt_chaos_test), across
  // processes: fault-free, overlapped start, within [0.5x, 2.5x] of the sim.
  for (const ParityKind& k : kParityKinds) {
    const std::string cell = count_cell(k.kind);
    SCOPED_TRACE(cell);
    const exp::RunRecord expected = run_cell(cell, "exec=sim");
    const exp::RunRecord actual = run_cell(cell, "exec=rt-udp:procs=4");
    EXPECT_EQ(actual.incomplete + actual.timeouts, 0);
    EXPECT_GE(actual.messages_per_process, 0.5 * expected.messages_per_process);
    EXPECT_LE(actual.messages_per_process, 2.5 * expected.messages_per_process);
  }
}

TEST(UdpParity, ColoringParityHoldsUnderInjectedDatagramDrop) {
  std::string why;
  if (!udp_loopback_available(why)) GTEST_SKIP() << why;
  // 1 % of raw datagrams dropped below perfect links: retransmission must
  // make the coloring outcome indistinguishable from the clean run. Sim
  // ignores link knobs, so the identical cell string runs on both sides.
  const Rank procs = 24;
  support::Xoshiro256ss rng(0x51AB5u);
  expect_parity(procs, pick_victims(procs, 2, rng),
                "chaos-seed=7,drop-prob=0.01");
}

}  // namespace
}  // namespace ct::rt
