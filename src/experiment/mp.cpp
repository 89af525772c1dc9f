#include "experiment/mp.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/pipe_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CT_EXP_MP_FORK 1
#else
#define CT_EXP_MP_FORK 0
#endif

namespace ct::exp {

namespace {

#if CT_EXP_MP_FORK

// Pipe framing (support/pipe_io.hpp): length-free, fixed-order stream of
// counters and Samples payloads.

bool write_samples(int fd, const support::Samples& samples) {
  const std::vector<double>& values = samples.values();
  const auto count = static_cast<std::uint64_t>(values.size());
  if (!support::write_all(fd, &count, sizeof(count))) return false;
  return count == 0 || support::write_all(fd, values.data(), values.size() * sizeof(double));
}

bool read_samples(int fd, support::Samples& samples) {
  std::uint64_t count = 0;
  if (!support::read_all(fd, &count, sizeof(count))) return false;
  std::vector<double> values(static_cast<std::size_t>(count));
  if (count > 0 && !support::read_all(fd, values.data(), values.size() * sizeof(double))) {
    return false;
  }
  for (const double v : values) samples.add(v);
  return true;
}

bool write_aggregate(int fd, const Aggregate& aggregate) {
  const std::int64_t counters[3] = {aggregate.runs, aggregate.not_fully_colored,
                                    aggregate.uncolored_total};
  if (!support::write_all(fd, counters, sizeof(counters))) return false;
  return write_samples(fd, aggregate.coloring_latency) &&
         write_samples(fd, aggregate.quiescence_latency) &&
         write_samples(fd, aggregate.messages_per_process) &&
         write_samples(fd, aggregate.max_gap) &&
         write_samples(fd, aggregate.gap_count) &&
         write_samples(fd, aggregate.correction_time);
}

/// Reads one worker's frame and appends it onto `into` — called in
/// ascending slice order, which IS the merge (Samples::merge semantics:
/// values append, order decides nothing downstream except percentiles'
/// lazily sorted copy, identical either way).
bool read_aggregate_into(int fd, Aggregate& into) {
  std::int64_t counters[3];
  if (!support::read_all(fd, counters, sizeof(counters))) return false;
  into.runs += counters[0];
  into.not_fully_colored += counters[1];
  into.uncolored_total += counters[2];
  return read_samples(fd, into.coloring_latency) &&
         read_samples(fd, into.quiescence_latency) &&
         read_samples(fd, into.messages_per_process) &&
         read_samples(fd, into.max_gap) &&
         read_samples(fd, into.gap_count) &&
         read_samples(fd, into.correction_time);
}

#endif  // CT_EXP_MP_FORK

}  // namespace

MpSweepResult run_replicated_mp(const Scenario& scenario, std::size_t reps,
                                std::uint64_t seed, int procs) {
  MpSweepResult result;
#if CT_EXP_MP_FORK
  const std::size_t want = procs > 1 ? static_cast<std::size_t>(procs) : 1;
  const std::size_t workers = std::min(want, reps == 0 ? 1 : reps);
  if (workers <= 1) {
    result.aggregate = run_replicated(scenario, reps, seed);
    return result;
  }
  const std::size_t chunk = (reps + workers - 1) / workers;

  // Worker k runs its slice serially — process-level parallelism replaces
  // the thread pool — and sends it as one frame. The parent drains frames
  // in ascending slice order: frame order = merge order = the serial rep
  // order.
  const std::size_t forked = support::fork_workers(
      (reps + chunk - 1) / chunk,
      [&](std::size_t k, int fd) {
        return write_aggregate(fd, run_replicated_range(scenario, k * chunk,
                                                        std::min(reps, (k + 1) * chunk),
                                                        seed));
      },
      [&](std::size_t /*k*/, int fd) { return read_aggregate_into(fd, result.aggregate); },
      result.error);
  result.procs_used = static_cast<int>(forked);
  result.forked = forked > 0;
  // A lost worker leaves a rep-range hole; the partial merge is not the
  // deterministic sweep, so make the failure loud via `error` and the run
  // count mismatch (aggregate.runs != reps).
  return result;
#else
  static_cast<void>(procs);
  result.aggregate = run_replicated(scenario, reps, seed);
  return result;
#endif
}

}  // namespace ct::exp
