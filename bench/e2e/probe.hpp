#pragma once
// Instruments ct_bench attaches from outside the program (README.md, "Traced
// run"). Nothing here is compiled into the libraries under src/:
//
//  * Tally / TallyArena — per-thread counters of protocol work, kept in one
//    MAP_SHARED anonymous mapping so rt-udp worker processes forked after
//    it exists add into memory the workload process reads once it has
//    reaped them.
//  * CountingProtocol — a sim::Protocol decorator that counts and times
//    begin / on_receive / on_sent / on_timer and, through a stack-local
//    sim::Context decorator, timers and colorings; on_sent counts the
//    messages each rank actually sent, by sim::tag.
//  * SpanLog / SpanScope — in-memory spans (name, start, end, parent) around
//    each call ct_bench makes into a layer, with self-time accounting and
//    Chrome trace-event export.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace ctbench {

namespace sim = ct::sim;
namespace topo = ct::topo;
using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux, so values
/// taken in different processes compare).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Counters of one thread, or of one rt-udp worker process. Each slot has a
/// single writer; slots are summed only after every writer is parked,
/// joined or reaped.
struct alignas(64) Tally {
  enum Call { kBegin, kReceive, kSent, kTimer, kCalls };
  enum Send { kTree, kCorrection, kCorrReply, kAck, kOther, kSends };

  std::int64_t calls[kCalls] = {};
  std::int64_t sends[kSends] = {};  ///< by the tag of the sent message
  std::int64_t busy_ns = 0;         ///< wall time inside protocol handlers
  std::int64_t timers_set = 0;
  std::int64_t colored = 0;
  std::int64_t factory_calls = 0;
  std::int64_t factory_ns = 0;

  std::int64_t total_calls() const noexcept;
  void add(const Tally& other) noexcept;
};

class TallyArena {
 public:
  static constexpr std::size_t kSlots = 4096;

  /// The process-wide arena. Create it (first call) before forking any
  /// process whose counts should be visible here.
  static TallyArena& instance();

  TallyArena(const TallyArena&) = delete;
  TallyArena& operator=(const TallyArena&) = delete;

  /// The calling thread's slot, taken on first use.
  Tally& local();
  /// Zeroes every slot. Writers must be quiescent.
  void reset();
  Tally sum() const;

  /// Earliest steady-clock stamp of a protocol factory call, and of the
  /// first measured epoch's factory call, across rt-udp worker processes
  /// (INT64_MAX = none yet). Reset before each measure_broadcast_udp call.
  std::atomic<std::int64_t>& first_factory_ns() { return shared_->first_factory_ns; }
  std::atomic<std::int64_t>& first_measured_ns() { return shared_->first_measured_ns; }

 private:
  struct Shared {
    std::atomic<std::size_t> next_slot;
    std::atomic<std::int64_t> first_factory_ns;
    std::atomic<std::int64_t> first_measured_ns;
    Tally slots[kSlots];
  };
  TallyArena();
  ~TallyArena() = default;  // the mapping lives until the process exits

  Shared* shared_;
};

/// Lowers `target` to `value` if smaller (shared-memory safe).
void atomic_min(std::atomic<std::int64_t>& target, std::int64_t value);

class CountingProtocol final : public sim::Protocol {
 public:
  explicit CountingProtocol(std::unique_ptr<sim::Protocol> inner)
      : inner_(std::move(inner)) {}

  void begin(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, topo::Rank me, std::int64_t id) override;

 private:
  std::unique_ptr<sim::Protocol> inner_;
};

/// One recorded interval on one thread (its track).
struct Span {
  const char* layer = nullptr;
  const char* name = nullptr;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root of its track
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int track = 0;
};

struct SpanSummary {
  std::map<std::string, double> self_s_by_layer;  ///< over every track
  double main_self_s = 0.0;  ///< self time summed over track 0 (the main thread)
  std::int64_t spans = 0;
};

class SpanLog {
 public:
  static constexpr std::int64_t kInherit = -2;

  static SpanLog& instance();

  /// Spans are recorded only after enable(); the calling thread becomes
  /// track 0.
  void enable();
  bool enabled() const noexcept { return enabled_; }

  std::int64_t open(const char* layer, const char* name, std::int64_t parent);
  void close(std::int64_t id);
  /// Id of the innermost open span on the calling thread (-1 if none).
  std::int64_t current() const;

  /// Self time = span duration minus the child spans on the same track.
  /// Children on other tracks (pool workers) keep their own self time.
  SpanSummary summarize() const;
  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path, const std::string& process_name) const;

 private:
  struct Track {
    int index = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans
  };
  SpanLog() = default;
  Track& track();

  bool enabled_ = false;
  std::int64_t origin_ns_ = 0;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;  ///< guards tracks_ (registration and reads)
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// RAII span; a no-op unless the log is enabled.
class SpanScope {
 public:
  SpanScope(const char* layer, const char* name,
            std::int64_t parent = SpanLog::kInherit)
      : id_(SpanLog::instance().enabled()
                ? SpanLog::instance().open(layer, name, parent)
                : -1) {}
  ~SpanScope() {
    if (id_ >= 0) SpanLog::instance().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

}  // namespace ctbench
