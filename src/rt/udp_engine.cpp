#include "rt/udp_engine.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CT_RT_HAVE_UDP 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "rt/step_caps.hpp"
#include "rt/udp_transport.hpp"
#include "topology/gaps.hpp"

namespace ct::rt {

namespace {

// Epoch control messages ride the same perfect links as protocol traffic,
// identified by negative Message::tag values (sim::tag's well-known tags
// are all positive). For control, src/dst hold *worker* indices, payload
// holds the epoch index, and data carries the timed-out flag.
constexpr std::int32_t kCtrlDone = -101;
constexpr std::int32_t kCtrlEnd = -102;

/// Message-flight allowance past the per-worker epoch timeout before the
/// coordinator force-ends an epoch with missing DONEs.
constexpr std::int64_t kCoordinatorGraceNs = 250'000'000;
/// A worker with no END after 2x timeout + this presumes the coordinator
/// dead and self-advances as timed out, so the run always terminates.
constexpr std::int64_t kWatchdogGraceNs = 500'000'000;

#if CT_RT_HAVE_UDP

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF mid-frame = dead worker
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_i64(int fd, std::int64_t v) { return write_all(fd, &v, sizeof(v)); }
bool read_i64(int fd, std::int64_t& v) { return read_all(fd, &v, sizeof(v)); }

/// One worker's view of one epoch, streamed back over the pipe.
struct EpochRecord {
  std::int64_t timed_out = 0;        ///< the END verdict (globally consistent)
  std::int64_t messages = 0;         ///< local ranks' sends
  std::int64_t completion_max_ns = 0;
  std::int64_t latency_ns = 0;       ///< begin -> END; authoritative on worker 0
  std::vector<std::uint8_t> rank_state;  ///< local slice, RankEnd values
};

struct Timer {
  sim::Time when = 0;
  std::int64_t id = 0;
  bool fired = false;
};

// ---------------------------------------------------------------------------
// UdpWorker: one forked process's half of the executor. Owns ranks
// [lo, hi), steps them single-threaded (process-level parallelism replaces
// the shard threads), and is itself the sim::Context facade.
// ---------------------------------------------------------------------------
class UdpWorker final : public sim::Context {
 public:
  UdpWorker(const UdpEngineOptions& options, const ProtocolFactory& factory,
            UdpTransport& transport, std::size_t self, std::size_t workers,
            std::size_t chunk)
      : options_(options),
        factory_(factory),
        transport_(transport),
        self_(self),
        workers_(workers),
        lo_(static_cast<topo::Rank>(self * chunk)),
        hi_(static_cast<topo::Rank>(std::min<std::size_t>(
            static_cast<std::size_t>(options.num_procs), (self + 1) * chunk))),
        chunk_(chunk) {
    const auto p = static_cast<std::size_t>(options_.num_procs);
    colored_.assign(p, 0);
    rank_data_.assign(p, 0);
    fifo_.resize(p);
    outbox_.resize(p);
    timers_.resize(p);
    sends_.assign(p, 0);
    completion_ns_.assign(p, -1);
    crashed_.assign(p, 0);
    completed_.assign(p, 0);
    crash_at_.assign(p, -1);
    crash_budget_.assign(p, -1);
    for (topo::Rank r = lo_; r < hi_; ++r) {
      if (!options_.failed[static_cast<std::size_t>(r)]) local_live_.push_back(r);
    }
    crash_active_ = options_.chaos.crashes_enabled();
    if (options_.chaos.links_enabled()) transport_.set_link_chaos(&options_.chaos);
  }

  // --- sim::Context ---------------------------------------------------------
  sim::Time now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_start_)
        .count();
  }
  topo::Rank num_procs() const override { return options_.num_procs; }

  void send(topo::Rank from, topo::Rank to, sim::Tag tag,
            std::int64_t payload) override {
    // begin() runs in every process; only the owner emits a rank's traffic.
    if (owner(from) != self_) return;
    outbox_[static_cast<std::size_t>(from)].push_back(Envelope{
        sim::Message{.src = from, .dst = to, .tag = tag, .payload = payload,
                     .data = rank_data_[static_cast<std::size_t>(from)]},
        tag_});
  }
  void set_timer(topo::Rank on, sim::Time when, std::int64_t id) override {
    if (owner(on) != self_) return;
    timers_[static_cast<std::size_t>(on)].push_back({when, id, false});
  }
  void mark_colored(topo::Rank r) override {
    colored_[static_cast<std::size_t>(r)] = 1;
  }
  bool is_colored(topo::Rank r) const override {
    return colored_[static_cast<std::size_t>(r)] != 0;
  }
  void note_correction_start() override {}  // gap snapshot: a sim-only metric
  void set_rank_data(topo::Rank r, std::int64_t data) override {
    rank_data_[static_cast<std::size_t>(r)] = data;
  }
  std::int64_t rank_data(topo::Rank r) const override {
    return rank_data_[static_cast<std::size_t>(r)];
  }

  // --- run ------------------------------------------------------------------
  void run() {
    const std::int64_t total = options_.warmup + options_.iterations;
    const std::int64_t timeout_ns = options_.epoch_timeout.count();
    for (std::int64_t i = 0; i < total; ++i) {
      begin_epoch();
      if (self_ == 0 && epoch_ == options_.warmup + 1) {
        measure_start_ = Clock::now();
      }
      run_epoch(timeout_ns);
      finalize_epoch();
    }
    if (self_ == 0) {
      wall_seconds_ =
          std::chrono::duration<double>(Clock::now() - measure_start_).count();
    }
    drain();
  }

  bool write_report(int fd) const {
    if (!write_i64(fd, lo_) || !write_i64(fd, hi_) ||
        !write_i64(fd, static_cast<std::int64_t>(records_.size()))) {
      return false;
    }
    for (const EpochRecord& rec : records_) {
      if (!write_i64(fd, rec.timed_out) || !write_i64(fd, rec.messages) ||
          !write_i64(fd, rec.completion_max_ns) || !write_i64(fd, rec.latency_ns) ||
          !write_all(fd, rec.rank_state.data(), rec.rank_state.size())) {
        return false;
      }
    }
    if (!write_i64(fd, transport_.retransmits()) ||
        !write_i64(fd, transport_.dup_drops()) ||
        !write_i64(fd, transport_.datagrams_sent()) ||
        !write_i64(fd, transport_.chaos_dropped()) ||
        !write_i64(fd, transport_.chaos_delayed()) ||
        !write_i64(fd, transport_.chaos_duplicated())) {
      return false;
    }
    return write_all(fd, &wall_seconds_, sizeof(wall_seconds_));
  }

 private:
  std::size_t owner(topo::Rank r) const noexcept {
    return static_cast<std::size_t>(r) / chunk_;
  }

  void begin_epoch() {
    ++epoch_;  // epochs count from 1, like the sharded executor
    tag_ = Envelope::make_tag(epoch_, 0);
    transport_.set_epoch(epoch_);
    for (topo::Rank r = lo_; r < hi_; ++r) {
      const auto slot = static_cast<std::size_t>(r);
      fifo_[slot].clear();
      outbox_[slot].clear();
      timers_[slot].clear();
      sends_[slot] = 0;
      completion_ns_[slot] = -1;
      crashed_[slot] = 0;
      completed_[slot] = 0;
      crash_at_[slot] = -1;
      crash_budget_[slot] = -1;
    }
    std::fill(colored_.begin(), colored_.end(), 0);
    std::fill(rank_data_.begin(), rank_data_.end(), 0);
    completed_local_ = 0;
    done_sent_ = false;
    end_received_ = false;
    end_timed_out_ = false;
    done_count_ = 0;
    done_timed_out_ = false;
    end_sent_ = false;
    pending_latency_ns_ = 0;

    protocol_ = factory_();
    epoch_start_ = Clock::now();
    protocol_->begin(*this);
    if (crash_active_) {
      for (const topo::Rank r : local_live_) {
        const auto slot = static_cast<std::size_t>(r);
        crash_at_[slot] = options_.chaos.crash_ns(epoch_, r);
        crash_budget_[slot] = options_.chaos.crash_send_budget(r);
      }
    }
    // Replay traffic that arrived for this epoch while we were still in the
    // previous one (UDP gives no cross-sender ordering with END).
    replay_holdback(ctrl_holdback_);
    replay_holdback(data_holdback_);
  }

  void replay_holdback(std::vector<Envelope>& holdback) {
    if (holdback.empty()) return;
    std::vector<Envelope> pending;
    pending.swap(holdback);
    for (const Envelope& envelope : pending) receive(envelope);
  }

  void run_epoch(std::int64_t timeout_ns) {
    auto land = [&](const Envelope& envelope) { receive(envelope); };
    const EnvelopeSink sink(land);
    while (!end_received_) {
      bool progress = transport_.poll_into(self_, sink) > 0;
      const sim::Time pass_now = now();
      for (const topo::Rank r : local_live_) progress |= step_rank(r, pass_now);
      if (!done_sent_ &&
          completed_local_ == static_cast<std::int64_t>(local_live_.size())) {
        send_done(/*timed_out=*/false);
      }
      if (!done_sent_ && pass_now > timeout_ns) send_done(/*timed_out=*/true);
      if (self_ == 0) {
        if (!end_sent_ &&
            (done_count_ == static_cast<std::int64_t>(workers_) ||
             pass_now > timeout_ns + kCoordinatorGraceNs)) {
          broadcast_end(done_timed_out_ ||
                        done_count_ < static_cast<std::int64_t>(workers_));
        }
      } else if (!end_received_ && pass_now > 2 * timeout_ns + kWatchdogGraceNs) {
        end_received_ = true;  // coordinator presumed dead
        end_timed_out_ = true;
      }
      transport_.flush(self_);
      if (!progress && !end_received_) {
        transport_.park(self_, std::chrono::microseconds(500));
      }
    }
  }

  /// Classifies one envelope off the wire: control, current-epoch data,
  /// future-epoch data (held back), or stale (dropped).
  void receive(const Envelope& envelope) {
    if (envelope.msg.tag < 0) {
      handle_ctrl(envelope);
      return;
    }
    const auto cur = static_cast<std::int32_t>(static_cast<std::uint32_t>(epoch_) &
                                               Envelope::kEpochMask);
    if (envelope.epoch() == cur) {
      const auto dst = static_cast<std::size_t>(envelope.msg.dst);
      if (owner(envelope.msg.dst) != self_ || options_.failed[dst]) return;
      fifo_[dst].push_back(envelope);
    } else if (envelope.epoch() > cur) {
      data_holdback_.push_back(envelope);
    }
    // Stale epochs: leftovers of a retired epoch, dropped like in-process ones.
  }

  void handle_ctrl(const Envelope& envelope) {
    const std::int64_t for_epoch = envelope.msg.payload;
    if (for_epoch > epoch_) {
      ctrl_holdback_.push_back(envelope);
      return;
    }
    if (for_epoch < epoch_) return;  // stale control, already acted on
    if (envelope.msg.tag == kCtrlDone && self_ == 0) {
      ++done_count_;
      done_timed_out_ = done_timed_out_ || envelope.msg.data != 0;
    } else if (envelope.msg.tag == kCtrlEnd && self_ != 0) {
      end_received_ = true;
      end_timed_out_ = envelope.msg.data != 0;
    }
  }

  void send_ctrl(std::size_t to_worker, std::int32_t kind, std::int64_t flag) {
    const Envelope envelope{
        sim::Message{.src = static_cast<topo::Rank>(self_),
                     .dst = static_cast<topo::Rank>(to_worker), .tag = kind,
                     .payload = epoch_, .data = flag},
        tag_};
    transport_.send_batch(self_, to_worker, &envelope, 1);
  }

  void send_done(bool timed_out) {
    done_sent_ = true;
    if (self_ == 0) {
      ++done_count_;
      done_timed_out_ = done_timed_out_ || timed_out;
    } else {
      send_ctrl(0, kCtrlDone, timed_out ? 1 : 0);
    }
  }

  /// Coordinator only: retire the epoch everywhere. END both ends epoch e
  /// and admits e+1 — the lockstep needs no separate BEGIN message.
  void broadcast_end(bool timed_out) {
    end_sent_ = true;
    pending_latency_ns_ = now();
    for (std::size_t w = 1; w < workers_; ++w) {
      send_ctrl(w, kCtrlEnd, timed_out ? 1 : 0);
    }
    end_received_ = true;
    end_timed_out_ = timed_out;
  }

  bool step_rank(topo::Rank r, sim::Time pass_now) {
    const auto slot = static_cast<std::size_t>(r);
    bool progress = false;
    if (crash_active_) {
      if (crashed_[slot]) {
        fifo_[slot].clear();  // dead ranks still receive; discard
        return false;
      }
      if (crash_at_[slot] >= 0 && pass_now >= crash_at_[slot]) {
        crash_rank(slot);
        return true;
      }
    }

    std::deque<Envelope>& fifo = fifo_[slot];
    std::size_t received = 0;
    while (received < kMaxStepReceives && !fifo.empty()) {
      const Envelope envelope = fifo.front();
      fifo.pop_front();
      progress = true;
      ++received;
      if (envelope.tag() == tag_) protocol_->on_receive(*this, r, envelope.msg);
    }

    std::vector<Envelope>& outbox = outbox_[slot];
    if (!outbox.empty()) {
      progress = true;
      const std::size_t limit = outbox.size() + kMaxChainedSends;
      std::size_t i = 0;
      for (; i < outbox.size() && i < limit; ++i) {
        if (crash_active_ && crash_budget_[slot] >= 0 &&
            sends_[slot] >= crash_budget_[slot]) {
          crash_rank(slot);  // the unsent tail dies with the rank
          return true;
        }
        ++sends_[slot];
        deliver(outbox[i]);
        const sim::Message sent = outbox[i].msg;
        protocol_->on_sent(*this, r, sent);
      }
      if (i == outbox.size()) {
        outbox.clear();
      } else {
        outbox.erase(outbox.begin(), outbox.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }

    std::vector<Timer>& timers = timers_[slot];
    if (!timers.empty()) {
      // Index loop: on_timer may set a new timer mid-scan.
      for (std::size_t i = 0; i < timers.size(); ++i) {
        if (!timers[i].fired && timers[i].when <= pass_now) {
          timers[i].fired = true;
          progress = true;
          protocol_->on_timer(*this, r, timers[i].id);
        }
      }
    }

    if (!completed_[slot] && colored_[slot] && outbox.empty()) {
      completed_[slot] = 1;
      completion_ns_[slot] = now();
      ++completed_local_;
    }
    return progress;
  }

  /// Local destinations land straight in the rank fifo; remote ones stage
  /// on the transport for the owning process. Failed destinations drop at
  /// the source, indistinguishable from success. Mid-epoch-crashed remote
  /// ranks are invisible here — their owner discards on their behalf.
  void deliver(const Envelope& envelope) {
    const auto dst = static_cast<std::size_t>(envelope.msg.dst);
    if (options_.failed[dst]) return;
    const std::size_t to = owner(envelope.msg.dst);
    if (to == self_) {
      fifo_[dst].push_back(envelope);
    } else {
      transport_.send_batch(self_, to, &envelope, 1);
    }
  }

  void crash_rank(std::size_t slot) {
    crashed_[slot] = 1;
    outbox_[slot].clear();
    timers_[slot].clear();
    fifo_[slot].clear();
    if (!completed_[slot]) {
      completed_[slot] = 1;  // completion_ns stays -1: it died, not completed
      ++completed_local_;
    }
  }

  void finalize_epoch() {
    EpochRecord rec;
    rec.timed_out = end_timed_out_ ? 1 : 0;
    rec.latency_ns = self_ == 0 ? pending_latency_ns_ : now();
    rec.rank_state.reserve(static_cast<std::size_t>(hi_ - lo_));
    for (topo::Rank r = lo_; r < hi_; ++r) {
      const auto slot = static_cast<std::size_t>(r);
      rec.messages += sends_[slot];
      rec.completion_max_ns = std::max(rec.completion_max_ns, completion_ns_[slot]);
      RankEnd end = RankEnd::kUncolored;
      if (options_.failed[slot]) {
        end = RankEnd::kFailedAtStart;
      } else if (crashed_[slot]) {
        end = RankEnd::kCrashed;
      } else if (colored_[slot]) {
        end = RankEnd::kColored;
      }
      rec.rank_state.push_back(static_cast<std::uint8_t>(end));
    }
    records_.push_back(std::move(rec));
    protocol_.reset();
  }

  /// Post-run ack settlement: peers retransmit until their last frames
  /// (final ENDs, late acks) are acknowledged, so keep servicing the socket
  /// briefly after the last epoch instead of vanishing mid-handshake.
  void drain() {
    auto drop = [](const Envelope&) {};
    const EnvelopeSink sink(drop);
    const auto start = Clock::now();
    Clock::time_point idle_since{};
    for (;;) {
      transport_.flush(self_);
      transport_.poll_into(self_, sink);
      const auto t = Clock::now();
      if (transport_.idle()) {
        if (idle_since == Clock::time_point{}) {
          idle_since = t;
        } else if (t - idle_since > std::chrono::milliseconds(50)) {
          break;  // lingered while idle: peers got their acks
        }
      } else {
        idle_since = Clock::time_point{};
      }
      if (t - start > std::chrono::milliseconds(1500)) break;
      transport_.park(self_, std::chrono::milliseconds(1));
    }
  }

  const UdpEngineOptions& options_;
  const ProtocolFactory& factory_;
  UdpTransport& transport_;
  const std::size_t self_;
  const std::size_t workers_;
  const topo::Rank lo_;
  const topo::Rank hi_;
  const std::size_t chunk_;
  std::vector<topo::Rank> local_live_;
  bool crash_active_ = false;

  // Per-rank state, indexed by global rank; only [lo, hi) entries are
  // stepped, but colored_/rank_data_ span all of P because begin() writes
  // globally (identically in every process).
  std::vector<char> colored_;
  std::vector<std::int64_t> rank_data_;
  std::vector<std::deque<Envelope>> fifo_;
  std::vector<std::vector<Envelope>> outbox_;
  std::vector<std::vector<Timer>> timers_;
  std::vector<std::int64_t> sends_;
  std::vector<std::int64_t> completion_ns_;
  std::vector<char> crashed_;
  std::vector<char> completed_;
  std::vector<std::int64_t> crash_at_;
  std::vector<std::int64_t> crash_budget_;

  // Epoch progression.
  std::int64_t epoch_ = 0;
  std::int32_t tag_ = 0;
  Clock::time_point epoch_start_{};
  std::unique_ptr<sim::Protocol> protocol_;
  std::int64_t completed_local_ = 0;
  bool done_sent_ = false;
  bool end_received_ = false;
  bool end_timed_out_ = false;
  // Coordinator (worker 0) bookkeeping.
  std::int64_t done_count_ = 0;
  bool done_timed_out_ = false;
  bool end_sent_ = false;
  std::int64_t pending_latency_ns_ = 0;
  // Cross-epoch skew buffers (see receive()).
  std::vector<Envelope> data_holdback_;
  std::vector<Envelope> ctrl_holdback_;

  std::vector<EpochRecord> records_;
  Clock::time_point measure_start_{};
  double wall_seconds_ = 0.0;
};

/// Parent-side accumulator for one worker's report frame.
struct WorkerReport {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<EpochRecord> epochs;
  std::int64_t retransmits = 0;
  std::int64_t dup_drops = 0;
  std::int64_t datagrams_sent = 0;
  std::int64_t chaos_dropped = 0;
  std::int64_t chaos_delayed = 0;
  std::int64_t chaos_duplicated = 0;
  double wall_seconds = 0.0;
};

bool read_report(int fd, std::int64_t expected_epochs, WorkerReport& report) {
  std::int64_t epochs = 0;
  if (!read_i64(fd, report.lo) || !read_i64(fd, report.hi) || !read_i64(fd, epochs)) {
    return false;
  }
  if (epochs != expected_epochs || report.hi < report.lo) return false;
  const auto slice = static_cast<std::size_t>(report.hi - report.lo);
  report.epochs.resize(static_cast<std::size_t>(epochs));
  for (EpochRecord& rec : report.epochs) {
    rec.rank_state.resize(slice);
    if (!read_i64(fd, rec.timed_out) || !read_i64(fd, rec.messages) ||
        !read_i64(fd, rec.completion_max_ns) || !read_i64(fd, rec.latency_ns) ||
        !read_all(fd, rec.rank_state.data(), slice)) {
      return false;
    }
  }
  if (!read_i64(fd, report.retransmits) || !read_i64(fd, report.dup_drops) ||
      !read_i64(fd, report.datagrams_sent) || !read_i64(fd, report.chaos_dropped) ||
      !read_i64(fd, report.chaos_delayed) ||
      !read_i64(fd, report.chaos_duplicated)) {
    return false;
  }
  return read_all(fd, &report.wall_seconds, sizeof(report.wall_seconds));
}

/// Reassembles one epoch's full-P EpochResult from the workers' slices.
EpochResult make_epoch_result(const std::vector<WorkerReport>& reports,
                              std::size_t e, topo::Rank num_procs) {
  EpochResult epoch;
  epoch.rank_state.assign(static_cast<std::size_t>(num_procs),
                          RankEnd::kFailedAtStart);
  for (const WorkerReport& report : reports) {
    const EpochRecord& rec = report.epochs[e];
    epoch.timed_out = epoch.timed_out || rec.timed_out != 0;
    epoch.total_messages += rec.messages;
    epoch.completion_ns = std::max(epoch.completion_ns, rec.completion_max_ns);
    for (std::size_t i = 0; i < rec.rank_state.size(); ++i) {
      epoch.rank_state[static_cast<std::size_t>(report.lo) + i] =
          static_cast<RankEnd>(rec.rank_state[i]);
    }
  }
  for (topo::Rank r = 0; r < num_procs; ++r) {
    switch (epoch.rank_state[static_cast<std::size_t>(r)]) {
      case RankEnd::kCrashed:
        ++epoch.crashed_mid_epoch;
        epoch.crashed_ranks.push_back(r);
        break;
      case RankEnd::kUncolored:
        ++epoch.uncolored_live;
        epoch.uncolored_survivors.push_back(r);
        break;
      default:
        break;
    }
  }
  if (epoch.degraded()) {
    std::vector<char> colored(static_cast<std::size_t>(num_procs), 0);
    bool any = false;
    for (topo::Rank r = 0; r < num_procs; ++r) {
      if (epoch.rank_state[static_cast<std::size_t>(r)] == RankEnd::kColored) {
        colored[static_cast<std::size_t>(r)] = 1;
        any = true;
      }
    }
    if (any) epoch.coloring_gaps = topo::analyze_gaps(colored);
  }
  return epoch;
}

int open_loopback_socket(int port, std::uint16_t& bound_port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    error = "socket() failed: " + std::string(std::strerror(errno));
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    error = "fcntl(O_NONBLOCK) failed";
    ::close(fd);
    return -1;
  }
  // Deep socket buffers absorb epoch bursts without loss; best effort —
  // perfect links recover whatever the kernel sheds anyway.
  const int buf = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "bind(127.0.0.1:" + std::to_string(port) +
            ") failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error = "getsockname() failed";
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

#endif  // CT_RT_HAVE_UDP

}  // namespace

bool udp_loopback_available(std::string& error) {
#if CT_RT_HAVE_UDP
  std::uint16_t port = 0;
  const int fd = open_loopback_socket(0, port, error);
  if (fd < 0) return false;
  ::close(fd);
  return true;
#else
  error = "rt-udp requires POSIX sockets";
  return false;
#endif
}

UdpRunResult measure_broadcast_udp(const UdpEngineOptions& options,
                                   const ProtocolFactory& factory) {
  UdpRunResult result;
#if CT_RT_HAVE_UDP
  const auto p = static_cast<std::size_t>(options.num_procs);
  if (options.num_procs < 1 || options.failed.size() != p || options.failed[0]) {
    result.error = "invalid rt-udp configuration (need P >= 1, rank 0 live)";
    return result;
  }
  // Slice the rank space; every slice is non-empty by construction.
  const std::size_t want = std::clamp<std::size_t>(
      options.procs > 0 ? static_cast<std::size_t>(options.procs) : 1, 1,
      std::min<std::size_t>(p, 64));
  const std::size_t chunk = (p + want - 1) / want;
  const std::size_t workers = (p + chunk - 1) / chunk;

  // Bind every worker's socket BEFORE forking: children inherit bound fds,
  // so there is no bind race, early datagrams queue in the kernel while
  // slower siblings start up, and port_base = 0 works with ephemeral ports.
  std::vector<int> fds;
  std::vector<std::uint16_t> ports(workers, 0);
  for (std::size_t k = 0; k < workers; ++k) {
    const int port =
        options.port_base > 0 ? options.port_base + static_cast<int>(k) : 0;
    const int fd = open_loopback_socket(port, ports[k], result.error);
    if (fd < 0) {
      for (const int open_fd : fds) ::close(open_fd);
      return result;
    }
    fds.push_back(fd);
  }

  struct Spawned {
    pid_t pid = -1;
    int read_fd = -1;
  };
  std::vector<Spawned> spawned;
  for (std::size_t k = 0; k < workers; ++k) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      result.error = "pipe() failed";
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      result.error = "fork() failed";
      break;
    }
    if (pid == 0) {
      // Worker: keep only this slice's socket and pipe write end; _exit
      // skips atexit/static destructors shared with the parent.
      ::close(pipe_fds[0]);
      for (std::size_t j = 0; j < workers; ++j) {
        if (j != k) ::close(fds[j]);
      }
      UdpTransport::Options transport_options;
      transport_options.fd = fds[k];
      transport_options.self = k;
      transport_options.peer_ports.assign(ports.begin(), ports.end());
      UdpTransport transport(transport_options);
      UdpWorker worker(options, factory, transport, k, workers, chunk);
      worker.run();
      const bool ok = worker.write_report(pipe_fds[1]);
      ::close(pipe_fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(pipe_fds[1]);
    spawned.push_back(Spawned{pid, pipe_fds[0]});
  }
  for (const int fd : fds) ::close(fd);

  const std::int64_t total_epochs = options.warmup + options.iterations;
  std::vector<WorkerReport> reports;
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    WorkerReport report;
    if (read_report(spawned[k].read_fd, total_epochs, report)) {
      reports.push_back(std::move(report));
    } else if (result.error.empty()) {
      result.error = "worker " + std::to_string(k) + " died before reporting";
    }
    ::close(spawned[k].read_fd);
  }
  for (const Spawned& worker : spawned) {
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (result.error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      result.error = "worker exited abnormally";
    }
  }
  result.procs_used = static_cast<int>(workers);
  if (!result.error.empty() || reports.size() != workers) {
    if (result.error.empty()) result.error = "missing worker reports";
    return result;
  }

  // Merge into the measure_broadcast aggregate shape (same loop, with the
  // per-epoch EpochResult reassembled from the worker slices).
  HarnessResult& merged = result.harness;
  for (std::int64_t e = options.warmup; e < total_epochs; ++e) {
    const EpochResult epoch =
        make_epoch_result(reports, static_cast<std::size_t>(e), options.num_procs);
    if (merged.iterations == 0) merged.first = epoch;
    ++merged.iterations;
    merged.total_messages += epoch.total_messages;
    merged.ranks_crashed += epoch.crashed_mid_epoch;
    if (epoch.degraded()) {
      if (merged.epochs_degraded == 0) merged.first_degraded = epoch;
      merged.last_degraded = epoch;
      ++merged.epochs_degraded;
    }
    if (epoch.timed_out) {
      ++merged.timeouts;
      continue;
    }
    if (epoch.uncolored_live > 0) ++merged.incomplete;
    // The coordinator's begin -> END span is the cross-process completion
    // latency (one clock; the workers' spans differ only by loopback skew).
    merged.latency_us.add(
        static_cast<double>(
            reports[0].epochs[static_cast<std::size_t>(e)].latency_ns) /
        1000.0);
    merged.messages_per_process.add(static_cast<double>(epoch.total_messages) /
                                    static_cast<double>(options.num_procs));
  }
  merged.wall_seconds = reports[0].wall_seconds;
  for (const WorkerReport& report : reports) {
    merged.retransmits += report.retransmits;
    merged.dup_drops += report.dup_drops;
    merged.messages_dropped += report.chaos_dropped;
    merged.messages_delayed += report.chaos_delayed;
    merged.messages_duplicated += report.chaos_duplicated;
  }
  return result;
#else
  static_cast<void>(options);
  static_cast<void>(factory);
  result.error = "rt-udp requires POSIX sockets";
  return result;
#endif
}

}  // namespace ct::rt
