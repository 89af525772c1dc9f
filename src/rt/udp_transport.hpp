#pragma once
// UdpTransport (DESIGN.md §4j): real POSIX UDP datagrams between OS
// processes with a perfect-links reliability layer. "Shard" in the
// Transport seam becomes "peer process": each rt-udp worker owns one
// nonblocking loopback socket, stages outgoing envelopes per peer, packs
// them into datagrams at flush time, and recovers loss with per-peer
// sequence numbers, a sliding retransmit window, piggybacked cumulative +
// selective acks, and (peer, seq) dedup. A frame is resent as soon as an
// ack shows the peer holding a later seq: loopback keeps one sender's
// frames in order, so a skipped frame is a lost one (a merely late one —
// chaos delay-prob — arrives twice, and dedup drops the copy). A 2 ms timer
// with exponential backoff recovers the loss that nothing later exposes
// (tail loss). Together that is the perfect-links contract (no loss, no
// duplication) the unchanged sim::Protocol state machines assume, without
// FIFO ordering they never needed (the in-process executor already
// delivers cross-rank mail out of order).
//
// Datagram layout (host byte order — the transport is loopback-only):
//
//   UdpHeader (24 bytes)
//     magic     u32   'CTU1' — rejects strays on a reused port
//     src       u16   sender's peer (process) index
//     kind      u8    kData (carries envelopes) | kAckOnly
//     count     u8    envelopes in the payload, <= kMaxEnvelopesPerDatagram
//     seq       u32   data sequence number for (src -> dst), from 1; 0 for
//                     ack-only frames
//     ack_cum   u32   reverse direction: every seq <= ack_cum received
//     ack_bits  u64   selective acks for seqs ack_cum+1 .. ack_cum+64
//   payload: count × 32-byte Envelope images, memcpy'd verbatim. The
//   envelope's delivery tag — the (generation << 24) | epoch packing of
//   rt/envelope.hpp, documented once in DESIGN.md §4i — rides inside each
//   image's Message::spare word; the datagram header adds no second epoch
//   field.
//
// Sequence numbers are per ordered peer pair and continuous across epochs:
// the engine never clears reliability state between epochs — stale-epoch
// envelopes are dropped by the receiver's tag filter exactly like
// in-process leftovers, and acks for late retransmits keep flowing.
//
// Chaos (drop/delay/duplicate) is applied *below* this layer, at the raw
// datagram send, so every injected loss is recovered by retransmission —
// that is what makes exec=sim vs exec=rt-udp survivor-coloring parity hold
// under drop-prob chaos. Each (re)transmission draws a fresh deterministic
// verdict from the ChaosPlan, so a dropped datagram's retry is a new coin.

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "rt/chaos.hpp"
#include "rt/transport.hpp"

namespace ct::rt {

struct UdpHeader {
  std::uint32_t magic = 0;
  std::uint16_t src = 0;
  std::uint8_t kind = 0;
  std::uint8_t count = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack_cum = 0;
  std::uint64_t ack_bits = 0;
};
static_assert(sizeof(UdpHeader) == 24, "header is memcpy'd onto the wire");

inline constexpr std::uint32_t kUdpMagic = 0x43545531u;  // 'CTU1'
inline constexpr std::uint8_t kUdpAckOnly = 0;
inline constexpr std::uint8_t kUdpData = 1;
/// 24 + 40·32 = 1304 bytes per datagram, under the classic 1400-byte
/// conservative MTU even though loopback would take far more.
inline constexpr std::size_t kMaxEnvelopesPerDatagram = 40;
inline constexpr std::size_t kMaxDatagramBytes =
    sizeof(UdpHeader) + kMaxEnvelopesPerDatagram * sizeof(Envelope);

class UdpTransport final : public Transport {
 public:
  struct Options {
    int fd = -1;          ///< bound nonblocking UDP socket (not owned)
    std::size_t self = 0; ///< this process's peer index
    /// Loopback port per peer index (self's entry is its own bound port).
    std::vector<std::uint16_t> peer_ports;
    /// Max unacked data datagrams per peer. Must stay <= 64: the selective
    /// ack bitmap spans ack_cum+1 .. ack_cum+64, and window <= 64 is what
    /// guarantees an in-flight seq is always representable in it.
    std::size_t window = 64;
  };

  explicit UdpTransport(const Options& options);

  // --- Transport seam -------------------------------------------------------
  /// Stages envelopes for `to`; the staging queue is unbounded (datagram
  /// packing and the retransmit window provide the real backpressure), so
  /// the whole batch is always accepted.
  std::size_t send_batch(std::size_t from, std::size_t to, const Envelope* data,
                         std::size_t n) override;
  /// Receives every datagram currently queued on the socket, processes
  /// acks, dedups, and delivers fresh data envelopes through `sink`.
  std::size_t poll_into(std::size_t to, const EnvelopeSink& sink) override;
  /// Parks on the socket via ppoll(2) at nanosecond precision, for at most
  /// 100 ms; the timeout is clamped to the next retransmit/chaos-release
  /// deadline so reliability work never oversleeps.
  void park(std::size_t to, std::chrono::nanoseconds timeout) override;
  /// No cross-thread waiters exist — the owning worker is the only thread.
  void kick(std::size_t to) override { static_cast<void>(to); }
  /// Packs staged envelopes into datagrams (window permitting), transmits
  /// them, retransmits due unacked frames, releases chaos-delayed frames,
  /// and flushes standalone acks.
  void flush(std::size_t from) override;
  /// Reliability state is connection-scoped, not epoch-scoped (see header
  /// comment): nothing to clear between epochs.
  void clear() override {}

  // --- rt-udp extras --------------------------------------------------------
  /// Arms drop/delay/duplicate verdicts at the raw datagram send. The plan
  /// must outlive the transport; epoch feeds the verdict hash domain.
  void set_link_chaos(const ChaosPlan* plan) { chaos_ = plan; }
  void set_epoch(std::int64_t epoch) { epoch_ = epoch; }

  /// True when nothing is staged, no datagram is unacked, and no ack or
  /// chaos-delayed frame is pending — the end-of-run drain predicate.
  bool idle() const;

  std::int64_t retransmits() const noexcept { return retransmits_; }
  std::int64_t dup_drops() const noexcept { return dup_drops_; }
  std::int64_t datagrams_sent() const noexcept { return datagrams_sent_; }
  std::int64_t chaos_dropped() const noexcept { return chaos_dropped_; }
  std::int64_t chaos_delayed() const noexcept { return chaos_delayed_; }
  std::int64_t chaos_duplicated() const noexcept { return chaos_duplicated_; }

 private:
  /// One unacked data datagram, kept verbatim for retransmission (the ack
  /// fields are refreshed in place on each retry).
  struct Unacked {
    std::uint32_t seq = 0;
    bool hole_resent = false;  ///< an ack's hole already made it due once
    std::vector<std::uint8_t> frame;
    std::int64_t next_retx_ns = 0;
    std::int64_t backoff_ns = 0;
  };

  /// A chaos-delayed raw datagram awaiting its release time. Owned by the
  /// transport — the "network" keeps in-flight frames.
  struct Held {
    std::size_t peer = 0;
    std::vector<std::uint8_t> frame;
    std::int64_t release_ns = 0;
  };

  struct Peer {
    // send side (self -> peer)
    std::uint32_t next_seq = 1;
    std::deque<Unacked> window;
    std::vector<Envelope> staged;
    std::size_t staged_head = 0;  // consumed prefix, compacted lazily
    // receive side (peer -> self) dedup + ack state
    std::uint32_t recv_cum = 0;  ///< every seq <= this received
    std::uint64_t recv_bits = 0; ///< selective: recv_cum+1 .. recv_cum+64
    bool ack_due = false;
  };

  std::int64_t now_ns() const;
  /// Earliest pending retransmit/chaos-release deadline; -1 when none.
  std::int64_t next_deadline_ns() const;
  void pack_staged(Peer& peer, std::size_t peer_index, std::int64_t now);
  /// Retires the frames the peer acknowledged and makes every unacked frame
  /// below the highest selectively acked seq due at the next flush (once
  /// per frame; the timer recovers a lost resend).
  void apply_acks(Peer& peer, std::uint32_t ack_cum, std::uint64_t ack_bits);
  /// Chaos-audited raw datagram send (the socket boundary).
  void transmit(std::size_t peer_index, const std::uint8_t* data, std::size_t len,
                std::int64_t now);
  void send_raw(std::size_t peer_index, const std::uint8_t* data, std::size_t len);

  Options options_;
  std::vector<Peer> peers_;
  std::vector<Held> held_;  ///< chaos-delayed frames awaiting release
  const ChaosPlan* chaos_ = nullptr;
  std::int64_t epoch_ = 0;
  std::int64_t verdict_index_ = 0;  ///< per-transmission chaos draw counter
  std::chrono::steady_clock::time_point base_;
  std::uint8_t scratch_[kMaxDatagramBytes]{};

  std::int64_t retransmits_ = 0;
  std::int64_t dup_drops_ = 0;
  std::int64_t datagrams_sent_ = 0;
  std::int64_t chaos_dropped_ = 0;
  std::int64_t chaos_delayed_ = 0;
  std::int64_t chaos_duplicated_ = 0;
};

}  // namespace ct::rt
