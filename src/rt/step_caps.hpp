#pragma once
// Per-rank-step drain bounds shared by the runtime's step loops (the sharded
// engine and the rt-udp worker), so both wall-clock executors pace protocol
// work identically.
//
// Everything already in the outbox when a step begins is drained in full —
// that backlog is bounded by protocol fan-out (tree children, correction
// distance). What must be capped is the *chained* overflow: on_sent may
// enqueue new sends during the drain (checked correction streams ring probes
// until a stop message arrives from the other direction), and following that
// chain to the end runs O(P) sends for one rank in one step — O(P²)
// envelopes in a single scheduling pass at large P, with no receive ever
// getting a turn to stop it. A small chained allowance restores the
// simulator's pacing, where stops arrive after a handful of probes. The
// receive cap only bounds pass *latency* (work is resumed next pass),
// keeping the epoch deadline responsive.

#include <cstddef>

namespace ct::rt {

inline constexpr std::size_t kMaxChainedSends = 4;
inline constexpr std::size_t kMaxStepReceives = 4096;

}  // namespace ct::rt
