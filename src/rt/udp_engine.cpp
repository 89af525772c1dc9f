#include "rt/udp_engine.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "rt/stepper.hpp"
#include "rt/udp_transport.hpp"
#include "support/pipe_io.hpp"

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
/// Idle park of a worker pass, honoured at nanosecond precision.
/// UdpTransport::park also wakes on a datagram and at the next retransmit
/// deadline, so a shorter slice only adds wakeups.
constexpr std::chrono::microseconds kIdlePark{500};

struct SliceHead {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t epochs = 0;
};

/// One worker's view of one epoch, streamed back over the pipe.
struct EpochRecord {
  struct Head {
    std::int64_t timed_out = 0;     ///< the END verdict (globally consistent)
    std::int64_t messages = 0;      ///< local ranks' sends
    std::int64_t completion_max_ns = 0;
    std::int64_t latency_ns = 0;    ///< begin -> END; authoritative on worker 0
  } head;
  std::vector<RankEnd> rank_state;  ///< local slice
};

struct LinkTally {
  std::int64_t retransmits = 0;
  std::int64_t dup_drops = 0;
  std::int64_t chaos_dropped = 0;
  std::int64_t chaos_delayed = 0;
  std::int64_t chaos_duplicated = 0;
};

// ---------------------------------------------------------------------------
// UdpWorker: one forked process, the rt-udp driver of the runtime's one rank
// stepper. Its slice is the stepper's single shard, stepped on the main
// thread, with the DONE/END lockstep, future-epoch holdback and the
// per-epoch report around it.
// ---------------------------------------------------------------------------
class UdpWorker final : private Stepper::Driver {
 public:
  UdpWorker(const UdpEngineOptions& options, const ProtocolFactory& factory,
            UdpTransport& transport, std::size_t self, std::size_t workers,
            std::size_t chunk)
      : options_(options),
        factory_(factory),
        transport_(transport),
        self_(self),
        workers_(workers),
        shard_(self, chunk, options.failed, workers),
        stepper_(options.num_procs, options.failed, chunk, shard_.lo, shard_.hi,
                 transport, *this) {
    // Crash verdicts apply per rank in the stepper; drop/delay/duplicate
    // verdicts per datagram in the transport, below perfect links.
    if (options_.chaos.enabled()) stepper_.set_chaos(&options_.chaos, /*link_verdicts=*/false);
    if (options_.chaos.links_enabled()) transport_.set_link_chaos(&options_.chaos);
  }

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
    const SliceHead head{shard_.lo, shard_.hi, static_cast<std::int64_t>(records_.size())};
    if (!support::write_all(fd, &head, sizeof(head))) return false;
    for (const EpochRecord& rec : records_) {
      if (!support::write_all(fd, &rec.head, sizeof(rec.head)) ||
          !support::write_all(fd, rec.rank_state.data(),
                              rec.rank_state.size() * sizeof(RankEnd))) {
        return false;
      }
    }
    const LinkTally link{transport_.retransmits(), transport_.dup_drops(),
                         transport_.chaos_dropped(), transport_.chaos_delayed(),
                         transport_.chaos_duplicated()};
    return support::write_all(fd, &link, sizeof(link)) &&
           support::write_all(fd, &wall_seconds_, sizeof(wall_seconds_));
  }

 private:
  /// A one-shot epoch in slot 0, as in the in-process engine. begin() runs
  /// in every process and writes coloring and rank data for every rank, so
  /// staging resets all P ranks, not only the slice.
  void begin_epoch() {
    ++epoch_;  // epochs count from 1, like the sharded executor
    transport_.set_epoch(epoch_);
    lockstep_ = Lockstep{};
    stepper_.open_window(1);
    shard_.reset();
    Stepper::Slot& slot = stepper_.slot(0);
    slot.epoch = epoch_;
    stepper_.stage(shard_, 0, 0, options_.num_procs);
    protocol_ = factory_();
    stepper_.start_clock();
    stepper_.launch(slot, *protocol_, /*dead=*/nullptr, /*generation=*/0, /*timeout_ns=*/0);
    stepper_.seed(shard_, 0);
    // Replay traffic that arrived for this epoch while we were still in the
    // previous one (UDP gives no cross-sender ordering with END).
    std::vector<Envelope> early;
    early.swap(holdback_);
    for (const Envelope& envelope : early) receive(envelope);
  }

  /// Passes until END: poll, step, DONE/END, flush; an idle pass parks.
  /// After its DONE a process keeps stepping — checked and failure-proof
  /// correction in other processes may still need its replies.
  void run_epoch(std::int64_t timeout_ns) {
    auto land = [&](const Envelope& envelope) { receive(envelope); };
    const EnvelopeSink sink(land);
    while (!lockstep_.end_received) {
      bool progress = transport_.poll_into(self_, sink) > 0;
      bool expired = false;
      progress |= stepper_.pass(shard_, /*deadline=*/0, expired);
      const sim::Time pass_now = stepper_.now();
      if (!lockstep_.done_sent && pass_now > timeout_ns) send_done(/*timed_out=*/true);
      if (self_ == 0) {
        if (!lockstep_.end_sent &&
            (lockstep_.done_count == static_cast<std::int64_t>(workers_) ||
             pass_now > timeout_ns + kCoordinatorGraceNs)) {
          broadcast_end(lockstep_.done_timed_out ||
                        lockstep_.done_count < static_cast<std::int64_t>(workers_));
        }
      } else if (!lockstep_.end_received && pass_now > 2 * timeout_ns + kWatchdogGraceNs) {
        lockstep_.end_received = true;  // coordinator presumed dead
        lockstep_.end_timed_out = true;
      }
      transport_.flush(self_);
      if (!progress && !lockstep_.end_received) transport_.park(self_, kIdlePark);
    }
  }

  /// Stepper::Driver: the slice completed; the coordinator learns it by DONE.
  void slice_complete(Stepper::Shard& /*shard*/, Stepper::Slot& /*slot*/) override {
    if (!lockstep_.done_sent) send_done(/*timed_out=*/false);
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
      stepper_.land(shard_, envelope);
    } else if (envelope.epoch() > cur) {
      holdback_.push_back(envelope);
    }
    // Stale epochs: leftovers of a retired epoch, dropped like in-process ones.
  }

  void handle_ctrl(const Envelope& envelope) {
    const std::int64_t for_epoch = envelope.msg.payload;
    if (for_epoch > epoch_) {
      holdback_.push_back(envelope);
      return;
    }
    if (for_epoch < epoch_) return;  // stale control, already acted on
    if (envelope.msg.tag == kCtrlDone && self_ == 0) {
      ++lockstep_.done_count;
      lockstep_.done_timed_out = lockstep_.done_timed_out || envelope.msg.data != 0;
    } else if (envelope.msg.tag == kCtrlEnd && self_ != 0) {
      lockstep_.end_received = true;
      lockstep_.end_timed_out = envelope.msg.data != 0;
    }
  }

  void send_ctrl(std::size_t to_worker, std::int32_t kind, std::int64_t flag) {
    const Envelope envelope{
        sim::Message{.src = static_cast<topo::Rank>(self_),
                     .dst = static_cast<topo::Rank>(to_worker), .tag = kind,
                     .payload = epoch_, .data = flag},
        stepper_.slot(0).tag};
    transport_.send_batch(self_, to_worker, &envelope, 1);
  }

  void send_done(bool timed_out) {
    lockstep_.done_sent = true;
    if (self_ == 0) {
      ++lockstep_.done_count;
      lockstep_.done_timed_out = lockstep_.done_timed_out || timed_out;
    } else {
      send_ctrl(0, kCtrlDone, timed_out ? 1 : 0);
    }
  }

  /// Coordinator only: retire the epoch everywhere. END both ends epoch e
  /// and admits e+1 — the lockstep needs no separate BEGIN message.
  void broadcast_end(bool timed_out) {
    lockstep_.end_sent = true;
    lockstep_.latency_ns = stepper_.now();
    for (std::size_t w = 1; w < workers_; ++w) {
      send_ctrl(w, kCtrlEnd, timed_out ? 1 : 0);
    }
    lockstep_.end_received = true;
    lockstep_.end_timed_out = timed_out;
  }

  void finalize_epoch() {
    EpochResult slice;
    stepper_.collect(stepper_.slot(0), shard_.lo, shard_.hi, slice);
    EpochRecord rec;
    rec.head.timed_out = lockstep_.end_timed_out ? 1 : 0;
    rec.head.messages = slice.total_messages;
    rec.head.completion_max_ns = slice.completion_ns;
    rec.head.latency_ns = self_ == 0 ? lockstep_.latency_ns : stepper_.now();
    rec.rank_state.assign(slice.rank_state.begin() + shard_.lo,
                          slice.rank_state.begin() + shard_.hi);
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
  Stepper::Shard shard_;
  Stepper stepper_;

  // Epoch progression.
  std::int64_t epoch_ = 0;
  std::unique_ptr<sim::Protocol> protocol_;
  /// The DONE/END state of the current epoch.
  struct Lockstep {
    bool done_sent = false;
    bool end_received = false;
    bool end_timed_out = false;
    // Coordinator (worker 0) bookkeeping.
    std::int64_t done_count = 0;
    bool done_timed_out = false;
    bool end_sent = false;
    std::int64_t latency_ns = 0;  // begin -> END broadcast
  } lockstep_;
  // Mail that arrived for the next epoch (see receive()).
  std::vector<Envelope> holdback_;

  std::vector<EpochRecord> records_;
  Clock::time_point measure_start_{};
  double wall_seconds_ = 0.0;
};

/// Parent-side accumulator for one worker's report frame.
struct WorkerReport {
  SliceHead slice;
  std::vector<EpochRecord> epochs;
  LinkTally link;
  double wall_seconds = 0.0;
};

bool read_report(int fd, std::int64_t expected_epochs, WorkerReport& report) {
  const SliceHead& head = report.slice;
  if (!support::read_all(fd, &report.slice, sizeof(report.slice)) ||
      head.epochs != expected_epochs || head.hi < head.lo) {
    return false;
  }
  const auto slice = static_cast<std::size_t>(head.hi - head.lo);
  report.epochs.resize(static_cast<std::size_t>(head.epochs));
  for (EpochRecord& rec : report.epochs) {
    rec.rank_state.resize(slice);
    if (!support::read_all(fd, &rec.head, sizeof(rec.head)) ||
        !support::read_all(fd, rec.rank_state.data(), slice * sizeof(RankEnd))) {
      return false;
    }
  }
  return support::read_all(fd, &report.link, sizeof(report.link)) &&
         support::read_all(fd, &report.wall_seconds, sizeof(report.wall_seconds));
}

/// Reassembles one epoch's full-P EpochResult from the workers' slices.
EpochResult merge_epoch(const std::vector<WorkerReport>& reports, std::size_t e,
                        topo::Rank num_procs) {
  EpochResult epoch;
  epoch.rank_state.assign(static_cast<std::size_t>(num_procs), RankEnd::kFailedAtStart);
  for (const WorkerReport& report : reports) {
    const EpochRecord& rec = report.epochs[e];
    epoch.timed_out = epoch.timed_out || rec.head.timed_out != 0;
    epoch.total_messages += rec.head.messages;
    epoch.completion_ns = std::max(epoch.completion_ns, rec.head.completion_max_ns);
    std::copy(rec.rank_state.begin(), rec.rank_state.end(),
              epoch.rank_state.begin() + report.slice.lo);
  }
  summarize_ranks(epoch);
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

}  // namespace

bool udp_loopback_available(std::string& error) {
  std::uint16_t port = 0;
  const int fd = open_loopback_socket(0, port, error);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

UdpRunResult measure_broadcast_udp(const UdpEngineOptions& options,
                                   const ProtocolFactory& factory) {
  UdpRunResult result;
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

  const std::int64_t total_epochs = options.warmup + options.iterations;
  std::vector<WorkerReport> reports;
  support::fork_workers(
      workers,
      [&](std::size_t k, int fd) {
        // Worker: keep only this slice's socket.
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
        return worker.write_report(fd);
      },
      [&](std::size_t /*k*/, int fd) {
        WorkerReport report;
        if (!read_report(fd, total_epochs, report)) return false;
        reports.push_back(std::move(report));
        return true;
      },
      result.error);
  for (const int fd : fds) ::close(fd);
  result.procs_used = static_cast<int>(workers);
  if (!result.error.empty() || reports.size() != workers) {
    if (result.error.empty()) result.error = "missing worker reports";
    return result;
  }

  // Merge into the measure_broadcast aggregate shape (same fold, with the
  // per-epoch EpochResult reassembled from the worker slices).
  HarnessResult& merged = result.harness;
  for (std::int64_t e = options.warmup; e < total_epochs; ++e) {
    const auto ei = static_cast<std::size_t>(e);
    // The coordinator's begin -> END span is the cross-process completion
    // latency (one clock; the workers' spans differ only by loopback skew).
    fold_epoch(merged, merge_epoch(reports, ei, options.num_procs),
               reports[0].epochs[ei].head.latency_ns, options.num_procs);
  }
  merged.wall_seconds = reports[0].wall_seconds;
  for (const WorkerReport& report : reports) {
    merged.retransmits += report.link.retransmits;
    merged.dup_drops += report.link.dup_drops;
    merged.messages_dropped += report.link.chaos_dropped;
    merged.messages_delayed += report.link.chaos_delayed;
    merged.messages_duplicated += report.link.chaos_duplicated;
  }
  return result;
}

}  // namespace ct::rt
