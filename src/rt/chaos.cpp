#include "rt/chaos.hpp"

#include "support/rng.hpp"

namespace ct::rt {

namespace {

// Domain-separation tags so the crash schedule and the three per-send
// decisions draw from statistically independent streams of the same seed.
constexpr std::uint64_t kCrashTag = 0x6372617368ULL;   // "crash"
constexpr std::uint64_t kLinkTag = 0x6c696e6bULL;      // "link"
constexpr std::uint64_t kReviveTag = 0x726576697665ULL;  // "revive"

/// Stateless mix of up to four words into one; SplitMix64-chained so every
/// input word fully avalanches into the output.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d = 0) {
  support::SplitMix64 m(a);
  std::uint64_t h = m.next();
  support::SplitMix64 mb(h ^ b);
  h = mb.next();
  support::SplitMix64 mc(h ^ c);
  h = mc.next();
  support::SplitMix64 md(h ^ d);
  return md.next();
}

double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

}  // namespace

std::int64_t ChaosPlan::crash_ns(std::int64_t epoch, topo::Rank rank) const {
  for (const auto& [r, ns] : kill_ns_) {
    if (r == rank) return ns;
  }
  if (options_.crash_fraction <= 0.0 || rank == 0) return -1;
  const std::uint64_t h = mix(options_.seed ^ kCrashTag,
                              static_cast<std::uint64_t>(epoch),
                              static_cast<std::uint64_t>(rank));
  if (unit(h) >= options_.crash_fraction) return -1;
  const std::uint64_t window =
      options_.crash_window_ns > 0 ? static_cast<std::uint64_t>(options_.crash_window_ns)
                                   : 1;
  // Second derived word picks the instant; 1-based so a crash is never
  // "before the epoch started".
  support::SplitMix64 when(h);
  return 1 + static_cast<std::int64_t>(when.next() % window);
}

std::int64_t ChaosPlan::revive_after_ns(std::int64_t crash_epoch,
                                        topo::Rank rank) const {
  for (const auto& [r, ns] : revive_ns_) {
    if (r == rank) return ns;
  }
  if (options_.revive_fraction <= 0.0 || rank == 0) return -1;
  const std::uint64_t h = mix(options_.seed ^ kReviveTag,
                              static_cast<std::uint64_t>(crash_epoch),
                              static_cast<std::uint64_t>(rank));
  if (unit(h) >= options_.revive_fraction) return -1;
  const std::int64_t delay = options_.revive_after_ns;
  return delay > 0 ? delay : 0;
}

ChaosPlan::Verdict ChaosPlan::classify(std::int64_t epoch, topo::Rank from,
                                       std::int64_t send_index) const {
  Verdict verdict;
  const std::uint64_t h = mix(options_.seed ^ kLinkTag,
                              static_cast<std::uint64_t>(epoch),
                              static_cast<std::uint64_t>(from),
                              static_cast<std::uint64_t>(send_index));
  support::SplitMix64 draw(h);
  if (options_.drop_prob > 0.0 && unit(draw.next()) < options_.drop_prob) {
    verdict.drop = true;
    return verdict;
  }
  if (options_.duplicate_prob > 0.0 && unit(draw.next()) < options_.duplicate_prob) {
    verdict.duplicate = true;
    return verdict;
  }
  if (options_.delay_prob > 0.0 && unit(draw.next()) < options_.delay_prob) {
    const std::int64_t delay = options_.delay_ns;
    verdict.delay_ns = delay > 0 ? delay : 0;
  }
  return verdict;
}

}  // namespace ct::rt
