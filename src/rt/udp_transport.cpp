#include "rt/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <ctime>

namespace ct::rt {

namespace {

/// First timer retransmit of an unacked datagram, doubled per retry up to
/// the cap. An ack that exposes the frame as lost resends it sooner.
constexpr std::int64_t kRetransmitBaseNs = 2'000'000;
constexpr std::int64_t kRetransmitCapNs = 100'000'000;
/// Longest single park, whatever the caller's timeout.
constexpr std::int64_t kMaxParkNs = 100'000'000;

/// Refreshes the piggybacked ack fields of an already-framed datagram in
/// place — retransmitted frames must carry the *current* receive state, or
/// a lost ack could stall the reverse window forever.
void restamp_acks(std::uint8_t* frame, std::uint32_t ack_cum, std::uint64_t ack_bits) {
  std::memcpy(frame + offsetof(UdpHeader, ack_cum), &ack_cum, sizeof(ack_cum));
  std::memcpy(frame + offsetof(UdpHeader, ack_bits), &ack_bits, sizeof(ack_bits));
}

}  // namespace

UdpTransport::UdpTransport(const Options& options)
    : options_(options),
      peers_(options.peer_ports.size()),
      base_(std::chrono::steady_clock::now()) {}

std::int64_t UdpTransport::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

std::size_t UdpTransport::send_batch(std::size_t from, std::size_t to,
                                     const Envelope* data, std::size_t n) {
  static_cast<void>(from);
  Peer& peer = peers_[to];
  peer.staged.insert(peer.staged.end(), data, data + n);
  return n;
}

void UdpTransport::apply_acks(Peer& peer, std::uint32_t ack_cum,
                              std::uint64_t ack_bits) {
  while (!peer.window.empty() && peer.window.front().seq <= ack_cum) {
    peer.window.pop_front();
  }
  if (ack_bits == 0) return;
  // Offset of the highest seq the peer holds: bit i acks ack_cum + 1 + i.
  const auto highest = static_cast<std::uint32_t>(64 - std::countl_zero(ack_bits));
  // Selective acks retire frames out of order; the cumulative pops above do
  // the bulk, so the erase-in-the-middle here stays rare.
  for (auto it = peer.window.begin(); it != peer.window.end();) {
    const std::uint32_t offset = it->seq - ack_cum;  // >= 1 after the pops above
    if (offset <= 64 && ((ack_bits >> (offset - 1)) & 1u) != 0) {
      it = peer.window.erase(it);
      continue;
    }
    // A later seq arrived and this one did not: it was lost. Resend it at
    // the next flush instead of at its timer.
    if (offset < highest && !it->hole_resent) {
      it->hole_resent = true;
      it->next_retx_ns = 0;
    }
    ++it;
  }
}

std::size_t UdpTransport::poll_into(std::size_t to, const EnvelopeSink& sink) {
  static_cast<void>(to);
  std::size_t delivered = 0;
  for (;;) {
    std::uint8_t buffer[kMaxDatagramBytes];
    const ssize_t got = ::recv(options_.fd, buffer, sizeof(buffer), 0);
    if (got < 0) break;  // EAGAIN / EWOULDBLOCK: socket drained
    if (static_cast<std::size_t>(got) < sizeof(UdpHeader)) continue;
    UdpHeader header;
    std::memcpy(&header, buffer, sizeof(header));
    if (header.magic != kUdpMagic || header.src >= peers_.size()) continue;
    Peer& peer = peers_[header.src];
    apply_acks(peer, header.ack_cum, header.ack_bits);
    if (header.kind != kUdpData) continue;
    peer.ack_due = true;  // every data frame earns an ack, fresh or duplicate
    const std::uint32_t seq = header.seq;
    if (seq <= peer.recv_cum ||
        (seq - peer.recv_cum <= 64 &&
         ((peer.recv_bits >> (seq - peer.recv_cum - 1)) & 1u) != 0)) {
      ++dup_drops_;
      continue;
    }
    // The sender's window <= 64 bounds seq to recv_cum + 64, so the offset
    // always fits the bitmap.
    peer.recv_bits |= std::uint64_t{1} << (seq - peer.recv_cum - 1);
    while ((peer.recv_bits & 1u) != 0) {
      ++peer.recv_cum;
      peer.recv_bits >>= 1;
    }
    const std::size_t count = std::min<std::size_t>(
        header.count,
        (static_cast<std::size_t>(got) - sizeof(UdpHeader)) / sizeof(Envelope));
    const std::uint8_t* payload = buffer + sizeof(UdpHeader);
    for (std::size_t i = 0; i < count; ++i) {
      Envelope envelope;
      std::memcpy(&envelope, payload + i * sizeof(Envelope), sizeof(Envelope));
      sink(envelope);
      ++delivered;
    }
  }
  return delivered;
}

void UdpTransport::park(std::size_t to, std::chrono::nanoseconds timeout) {
  static_cast<void>(to);
  std::int64_t wait_ns = timeout.count();
  const std::int64_t deadline = next_deadline_ns();
  if (deadline >= 0) {
    wait_ns = std::min(wait_ns, std::max<std::int64_t>(deadline - now_ns(), 0));
  }
  wait_ns = std::min(wait_ns, kMaxParkNs);
  if (wait_ns <= 0) return;
  const timespec wait{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
  struct pollfd pfd {};
  pfd.fd = options_.fd;
  pfd.events = POLLIN;
  ::ppoll(&pfd, 1, &wait, nullptr);
}

std::int64_t UdpTransport::next_deadline_ns() const {
  std::int64_t deadline = -1;
  for (const Peer& peer : peers_) {
    for (const Unacked& unacked : peer.window) {
      if (deadline < 0 || unacked.next_retx_ns < deadline) {
        deadline = unacked.next_retx_ns;
      }
    }
  }
  for (const Held& held : held_) {
    if (deadline < 0 || held.release_ns < deadline) deadline = held.release_ns;
  }
  return deadline;
}

void UdpTransport::pack_staged(Peer& peer, std::size_t peer_index,
                               std::int64_t now) {
  while (peer.staged_head < peer.staged.size() &&
         peer.window.size() < options_.window) {
    const std::size_t remaining = peer.staged.size() - peer.staged_head;
    const std::size_t count = std::min(remaining, kMaxEnvelopesPerDatagram);
    UdpHeader header;
    header.magic = kUdpMagic;
    header.src = static_cast<std::uint16_t>(options_.self);
    header.kind = kUdpData;
    header.count = static_cast<std::uint8_t>(count);
    header.seq = peer.next_seq++;
    header.ack_cum = peer.recv_cum;
    header.ack_bits = peer.recv_bits;
    const std::size_t len = sizeof(UdpHeader) + count * sizeof(Envelope);
    std::memcpy(scratch_, &header, sizeof(header));
    std::memcpy(scratch_ + sizeof(UdpHeader),
                peer.staged.data() + peer.staged_head, count * sizeof(Envelope));
    peer.staged_head += count;
    peer.ack_due = false;  // piggybacked
    Unacked unacked;
    unacked.seq = header.seq;
    unacked.frame.assign(scratch_, scratch_ + len);
    unacked.backoff_ns = kRetransmitBaseNs;
    unacked.next_retx_ns = now + unacked.backoff_ns;
    peer.window.push_back(std::move(unacked));
    transmit(peer_index, scratch_, len, now);
  }
  if (peer.staged_head == peer.staged.size()) {
    peer.staged.clear();
    peer.staged_head = 0;
  }
}

void UdpTransport::flush(std::size_t from) {
  static_cast<void>(from);
  const std::int64_t now = now_ns();
  // Release chaos-delayed frames whose time has come — straight to the
  // wire, a delayed frame already drew its verdict.
  for (std::size_t i = 0; i < held_.size();) {
    if (held_[i].release_ns <= now) {
      send_raw(held_[i].peer, held_[i].frame.data(), held_[i].frame.size());
      held_[i] = std::move(held_.back());
      held_.pop_back();
    } else {
      ++i;
    }
  }
  for (std::size_t peer_index = 0; peer_index < peers_.size(); ++peer_index) {
    if (peer_index == options_.self) continue;
    Peer& peer = peers_[peer_index];
    pack_staged(peer, peer_index, now);
    for (Unacked& unacked : peer.window) {
      if (unacked.next_retx_ns > now) continue;
      restamp_acks(unacked.frame.data(), peer.recv_cum, peer.recv_bits);
      peer.ack_due = false;
      transmit(peer_index, unacked.frame.data(), unacked.frame.size(), now);
      ++retransmits_;
      unacked.backoff_ns = std::min(unacked.backoff_ns * 2, kRetransmitCapNs);
      unacked.next_retx_ns = now + unacked.backoff_ns;
    }
    if (peer.ack_due) {
      UdpHeader header;
      header.magic = kUdpMagic;
      header.src = static_cast<std::uint16_t>(options_.self);
      header.kind = kUdpAckOnly;
      header.count = 0;
      header.seq = 0;
      header.ack_cum = peer.recv_cum;
      header.ack_bits = peer.recv_bits;
      std::memcpy(scratch_, &header, sizeof(header));
      transmit(peer_index, scratch_, sizeof(header), now);
      peer.ack_due = false;
    }
  }
}

void UdpTransport::transmit(std::size_t peer_index, const std::uint8_t* data,
                            std::size_t len, std::int64_t now) {
  if (chaos_ != nullptr && chaos_->links_enabled()) {
    // The transmission counter — not the datagram seq — indexes the verdict
    // stream, so each retransmission of the same frame is a fresh draw and
    // a chaos-dropped datagram is eventually recovered.
    const ChaosPlan::Verdict verdict = chaos_->classify(
        epoch_, static_cast<topo::Rank>(options_.self), ++verdict_index_);
    if (verdict.drop) {
      ++chaos_dropped_;
      return;
    }
    if (verdict.delay_ns > 0) {
      Held held;
      held.peer = peer_index;
      held.frame.assign(data, data + len);
      held.release_ns = now + verdict.delay_ns;
      held_.push_back(std::move(held));
      ++chaos_delayed_;
      return;
    }
    if (verdict.duplicate) {
      ++chaos_duplicated_;
      send_raw(peer_index, data, len);
    }
  }
  send_raw(peer_index, data, len);
}

void UdpTransport::send_raw(std::size_t peer_index, const std::uint8_t* data,
                            std::size_t len) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.peer_ports[peer_index]);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Failures (full socket buffer, transient ENOBUFS) are indistinguishable
  // from network loss to the peer — the retransmit timer recovers them.
  ::sendto(options_.fd, data, len, 0, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr));
  ++datagrams_sent_;
}

bool UdpTransport::idle() const {
  if (!held_.empty()) return false;
  for (const Peer& peer : peers_) {
    if (peer.staged_head < peer.staged.size()) return false;
    if (!peer.window.empty()) return false;
    if (peer.ack_due) return false;
  }
  return true;
}

}  // namespace ct::rt
