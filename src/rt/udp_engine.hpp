#pragma once
// exec=rt-udp (DESIGN.md §4j): the multi-process executor. The rank space
// is carved into contiguous slices — one forked OS process per slice, each
// owning a bound loopback UDP socket — and cross-process envelopes travel
// as real datagrams under the perfect-links layer of udp_transport.hpp.
//
// Every process builds the *full-P* protocol each epoch through the
// inherited factory (fork carries the whole configuration; nothing is
// serialized) and runs the deterministic begin() everywhere, but steps only
// its slice, on its main thread, with the in-process Engine's rank stepper
// (stepper.hpp), which keeps only the slice's sends and timers: exactly one
// process — the owner — emits each rank's traffic. This is sound because
// the repo's protocols only read their own rank's coloring/data through
// the Context (verified across src/protocol), and per-rank protocol-
// internal state is disjoint.
//
// Epochs run in lockstep through a two-message control protocol carried by
// the same perfect links (negative protocol tags, so they never collide
// with sim::tag's well-known positive space): each worker sends DONE to the
// coordinator (worker 0) when all its local live ranks completed or
// crashed, and keeps stepping; the coordinator broadcasts END once every
// DONE arrived (or its deadline passed), and END both retires the epoch and
// admits the next — no separate BEGIN. A worker that sees no END within
// twice the epoch timeout self-advances as timed out, so a dead coordinator
// cannot hang the run. Results stream back to the parent over pipes
// (support/pipe_io.hpp), and the parent merges them into the
// rt::HarnessResult shape measure_broadcast produces (plus the transport's
// retransmits / dup_drops tallies).
//
// Fork discipline: call measure_broadcast_udp before the process spawns
// threads. A forked child inherits only the calling thread, so a lock held
// by any other thread would deadlock it. The parent binds ALL worker
// sockets before forking — children inherit bound fds, so there is no
// port-collision or bind-race window, and port_base = 0 can leave port
// assignment entirely to the kernel.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/chaos.hpp"
#include "rt/harness.hpp"

namespace ct::rt {

struct UdpEngineOptions {
  topo::Rank num_procs = 0;
  /// `failed[r] != 0` marks rank r failed from start (no process steps it;
  /// mail to it is dropped at the source). Rank 0 must be live.
  std::vector<char> failed;
  /// Worker process count; clamped to [1, min(num_procs, 64)]. 1 still
  /// exercises the full epoch protocol with the coordinator talking to
  /// itself (and no datagrams on the wire).
  int procs = 4;
  /// First UDP port: worker k binds 127.0.0.1:(port_base + k). 0 = let the
  /// kernel assign ephemeral ports (the default, and collision-free).
  int port_base = 0;
  /// Crash verdicts apply at the rank level exactly as in the sharded
  /// engine; drop/delay/duplicate verdicts apply per *datagram* at the
  /// socket boundary, below perfect links, so retransmission recovers them.
  ChaosPlan chaos;
  std::int64_t warmup = 3;
  std::int64_t iterations = 20;
  std::chrono::nanoseconds epoch_timeout = std::chrono::seconds(10);
};

struct UdpRunResult {
  HarnessResult harness;
  int procs_used = 1;
  /// Non-empty when the run failed (socket setup, fork, or a worker died);
  /// `harness` is partial or empty in that case.
  std::string error;
};

/// True when a loopback UDP socket can be created and bound; on failure
/// `error` says why. Tests use this to skip cleanly in socketless sandboxes.
bool udp_loopback_available(std::string& error);

/// Runs warmup + iterations broadcast epochs of `factory`-built protocols
/// across forked UDP worker processes and merges the per-process reports.
UdpRunResult measure_broadcast_udp(const UdpEngineOptions& options,
                                   const ProtocolFactory& factory);

}  // namespace ct::rt
