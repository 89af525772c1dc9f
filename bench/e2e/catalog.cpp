// Every metric ct_bench prints, with unit and direction. `ct_bench --list`
// prints this table and ct_bench_list.golden pins it, so a renamed or dropped
// metric shows up as a reviewed diff. README.md maps each layer metric to the
// end-to-end metric it should move.

#include <sstream>

#include "bench.hpp"

namespace ctbench {

namespace {
constexpr const char* kSim = "sim-sweep";
constexpr const char* kRt = "rt-bcast rt-stream rt-checked-chaos";
constexpr const char* kRtAll = "rt-bcast rt-stream rt-checked-chaos udp-lossy";
}  // namespace

const std::vector<Metric>& catalog() {
  static const std::vector<Metric> metrics = {
      // name, unit, better, end_to_end, traced_only, workloads
      {"setup_s", "s", "lower", true, false, nullptr},
      {"bcast_per_s", "1/s", "higher", true, false, nullptr},
      {"lat_p50_us", "us", "lower", true, false, nullptr},
      {"lat_p90_us", "us", "lower", true, false, nullptr},
      {"msgs_per_proc", "msgs", "lower", true, false, nullptr},
      {"cpu_ms_per_bcast", "ms", "lower", true, false, nullptr},
      {"peak_rss_mb", "MB", "lower", true, false, nullptr},
      {"ok_ratio", "ratio", "higher", true, false, nullptr},

      {"topology.build_ms", "ms", "lower", false, false, nullptr},
      {"topology.survivor_rebuilds", "count", "none", false, false, nullptr},
      {"topology.survivor_rebuild_ms", "ms", "lower", false, false, "rt-checked-chaos"},
      {"experiment.warmup_s", "s", "lower", false, false, nullptr},
      {"experiment.measured_s", "s", "none", false, false, nullptr},

      {"exec.threads", "count", "none", false, false, nullptr},
      {"exec.worker_cpu_ms_per_bcast", "ms", "lower", false, false, nullptr},
      {"exec.sys_ms_per_bcast", "ms", "lower", false, false, nullptr},
      {"exec.util", "ratio", "none", false, false, nullptr},
      {"exec.msgs_per_cpu_s", "1/s", "higher", false, false, nullptr},
      {"exec.vcsw_per_bcast", "count", "lower", false, false, nullptr},
      {"exec.ivcsw_per_bcast", "count", "lower", false, false, nullptr},
      {"exec.self_ms_per_bcast", "ms", "lower", false, true, nullptr},

      {"protocol.factory_us_per_bcast", "us", "lower", false, true, nullptr},
      {"protocol.calls_per_bcast.begin", "count", "lower", false, true, nullptr},
      {"protocol.calls_per_bcast.receive", "count", "lower", false, true, nullptr},
      {"protocol.calls_per_bcast.sent", "count", "lower", false, true, nullptr},
      {"protocol.calls_per_bcast.timer", "count", "lower", false, true, nullptr},
      {"protocol.busy_ms_per_bcast", "ms", "lower", false, true, nullptr},
      {"protocol.ns_per_call", "ns", "lower", false, true, nullptr},
      {"protocol.cpu_share", "ratio", "none", false, true, nullptr},
      {"protocol.sends_per_proc.tree", "msgs", "lower", false, true, nullptr},
      {"protocol.sends_per_proc.correction", "msgs", "lower", false, true, nullptr},
      {"protocol.sends_per_proc.corr_reply", "msgs", "lower", false, true, nullptr},
      {"protocol.sends_per_proc.ack", "msgs", "lower", false, true, nullptr},
      {"protocol.sends_per_proc.other", "msgs", "lower", false, true, nullptr},
      {"protocol.colored_per_bcast", "count", "none", false, true, nullptr},
      {"protocol.timers_per_bcast", "count", "lower", false, true, nullptr},

      {"sim.events_per_rep", "count", "none", false, true, kSim},
      {"sim.run_ms_per_rep", "ms", "lower", false, true, kSim},
      {"sim.engine_self_ms_per_rep", "ms", "lower", false, true, kSim},
      {"sim.events_per_engine_s", "1/s", "higher", false, true, kSim},
      {"sim.fault_sample_ms_per_rep", "ms", "lower", false, true, kSim},
      {"sim.mean_quiescence_ticks", "ticks", "none", false, false, kSim},
      {"sim.p99_quiescence_ticks", "ticks", "none", false, false, kSim},

      {"rt.engine.construct_ms", "ms", "lower", false, false, kRt},
      {"rt.engine.call_p50_us", "us", "lower", false, false, "rt-bcast"},
      {"rt.engine.completion_p50_us", "us", "lower", false, false, "rt-bcast"},
      {"rt.engine.bracket_p50_us", "us", "lower", false, false, "rt-bcast"},
      {"rt.stream.admit_lag_p50_us", "us", "lower", false, false, "rt-stream"},
      {"rt.stream.admit_lag_p90_us", "us", "lower", false, false, "rt-stream"},
      {"rt.stream.service_p50_us", "us", "lower", false, false, "rt-stream"},
      {"rt.stream.service_p90_us", "us", "lower", false, false, "rt-stream"},
      {"rt.stream.inflight_mean", "count", "none", false, false, "rt-stream"},
      {"rt.chaos.crashed_per_bcast", "count", "none", false, false, nullptr},
      {"rt.chaos.dropped_per_bcast", "count", "none", false, false, nullptr},
      {"rt.chaos.degraded_epochs", "count", "lower", false, false, nullptr},
      {"rt.membership.repairs", "count", "none", false, false, nullptr},
      {"rt.membership.rejoins", "count", "none", false, false, nullptr},
      {"rt.membership.replayed_epochs", "count", "none", false, false, nullptr},
      {"rt.membership.state_transfers", "count", "none", false, false, nullptr},
      {"rt.membership.epochs_to_converge", "count", "lower", false, false, nullptr},
      {"rt.transport.retransmits_per_bcast", "count", "lower", false, false, nullptr},
      {"rt.transport.dup_drops_per_bcast", "count", "lower", false, false, nullptr},
      {"rt.transport.useful_retx_ratio", "ratio", "higher", false, false, nullptr},
      {"rt.transport.worker_peak_rss_mb", "MB", "lower", false, false, "udp-lossy"},
      {"rt.harness.lat_p99_us", "us", "lower", false, false, kRtAll},
      {"rt.harness.lat_tail_us", "us", "lower", false, false, kRtAll},
      {"rt.harness.samples", "count", "none", false, false, kRtAll},

      {"trace.overhead_ratio", "ratio", "higher", false, true, nullptr},
      {"trace.spans", "count", "none", false, true, nullptr},
      {"trace.coverage", "ratio", "none", false, true, nullptr},
      {"trace.self_ms.bench", "ms", "none", false, true, nullptr},
      {"trace.self_ms.topology", "ms", "none", false, true, nullptr},
      {"trace.self_ms.experiment", "ms", "none", false, true, nullptr},
      {"trace.self_ms.protocol", "ms", "none", false, true, nullptr},
      {"trace.self_ms.sim", "ms", "none", false, true, nullptr},
      {"trace.self_ms.rt", "ms", "none", false, true, nullptr},
  };
  return metrics;
}

bool applies(const Metric& metric, const std::string& workload) {
  if (metric.workloads == nullptr) return true;
  std::istringstream names(metric.workloads);
  std::string name;
  while (names >> name) {
    if (name == workload) return true;
  }
  return false;
}

}  // namespace ctbench
