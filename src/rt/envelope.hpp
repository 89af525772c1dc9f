#pragma once
// The runtime's wire unit: a simulator Message plus the delivery tag
// (benchmark epoch + membership generation) it belongs to. Every delivery
// structure of the runtime — the per-rank LocalFifo, the cross-shard SPSC
// mesh and the UDP datagrams — moves Envelopes; receivers drop stale-tag
// leftovers.
//
// The tag rides in Message::spare (the word that used to be struct
// padding), so an Envelope is exactly one 32-byte Message: two per cache
// line on every ring, 20 % less byte traffic per hop than the old
// {Message, int64} pair, and `msg` can be handed to protocol callbacks by
// reference with no repack.
//
// Tag layout (DESIGN.md §4i): bits [0,24) hold the epoch, bits [24,32) the
// membership generation, so mail sent before a repair pass rebuilt the
// tree/ring is dropped by generation even when it lands in the same epoch
// number. Generation 0 (no repairs) keeps spare == epoch, bit-identical to
// the pre-repair wire format. The 24-bit epoch window means a stale
// envelope would need to survive 16M epochs in flight to alias — the
// deepest queue in the runtime holds one epoch of mail.

#include <cstdint>

#include "sim/message.hpp"

namespace ct::rt {

struct Envelope {
  static constexpr std::uint32_t kEpochMask = 0x00FF'FFFFu;
  static constexpr int kGenShift = 24;

  sim::Message msg;

  Envelope() = default;

  /// `tag` is the precomputed make_tag(epoch, generation) word the engine
  /// keeps per epoch; the hot send path stamps it without re-packing.
  Envelope(const sim::Message& m, std::int32_t tag) : msg(m) {
    msg.spare = tag;
  }

  static std::int32_t make_tag(std::int64_t epoch,
                               std::int32_t generation) noexcept {
    return static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(generation & 0xFF) << kGenShift) |
        (static_cast<std::uint32_t>(epoch) & kEpochMask));
  }

  /// Full delivery-match word (epoch + generation). Receivers compare this
  /// against the engine's current tag.
  std::int32_t tag() const noexcept { return msg.spare; }

  std::int32_t epoch() const noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(msg.spare) &
                                     kEpochMask);
  }

  std::int32_t generation() const noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(msg.spare) >>
                                     kGenShift);
  }
};
static_assert(sizeof(Envelope) == sizeof(sim::Message),
              "the tag must pack into Message::spare, not widen the envelope");

}  // namespace ct::rt
