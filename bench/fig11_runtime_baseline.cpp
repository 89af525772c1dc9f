// Figure 11: broadcast median latency of the message-passing prototype vs
// process count — Corrected Gossip, the platform's binomial broadcast
// ("Binomial (Cray)") and our generic-stack binomial implementation.
//
// SUBSTITUTION (see DESIGN.md §1): no MPI library or cluster exists in this
// environment, so the prototype runs on the in-process threaded runtime
// (ct::rt), and process counts are scaled down (threads share one machine).
// "Binomial (native)" is a direct, minimal binomial broadcast protocol
// standing in for the platform implementation; "Binomial (ours)" is the
// same algorithm via the full corrected-tree stack with correction disabled
// (d = 0), exactly the paper's pairing. The stack rows are RunSpec cells
// (DESIGN.md §4e) — each cell's spec string is built below and reproducible
// with ct_sim --spec; only the native baseline drives the harness directly
// (it is a bench-local protocol, deliberately outside the library).
// Paper shape: both binomial variants are close (ours slightly slower from
// stack generality); gossip is consistently the slowest.

#include <memory>
#include <string>

#include "bench_common.hpp"
#include "experiment/run_spec.hpp"
#include "rt/harness.hpp"

namespace {

using namespace ct;

/// Minimal, direct binomial broadcast — the "platform implementation"
/// stand-in: no correction engine, no configuration, just children sends.
class NativeBinomial final : public sim::Protocol {
 public:
  explicit NativeBinomial(const topo::Tree& tree) : tree_(tree) {}

  void begin(sim::Context& ctx) override {
    ctx.mark_colored(0);
    for (topo::Rank child : tree_.children(0)) ctx.send(0, child, sim::tag::kTree, 0);
  }
  void on_receive(sim::Context& ctx, topo::Rank me, const sim::Message&) override {
    ctx.mark_colored(me);
    for (topo::Rank child : tree_.children(me)) ctx.send(me, child, sim::tag::kTree, 0);
  }
  void on_sent(sim::Context&, topo::Rank, const sim::Message&) override {}

 private:
  const topo::Tree& tree_;
};

/// The paper's gossip-round budget: "fixing the number of correction
/// messages to four, we empirically selected a number of gossip rounds" —
/// a few rounds beyond log2(P) colors (almost) everyone before correction.
std::int64_t gossip_rounds_for(topo::Rank procs) {
  std::int64_t rounds = 2;
  while ((topo::Rank{1} << rounds) < procs) ++rounds;
  return rounds + 2;
}

}  // namespace

int main(int argc, char** argv) {
  // --procs is the largest rank count of the sweep; threads share the host.
  const bench::BenchEnv env = bench::make_env(argc, argv, /*procs=*/48, /*reps=*/15);
  bench::print_header(
      env,
      "Figure 11 — runtime broadcast median latency vs process count "
      "(threaded-runtime substitution for the Cray/MPI testbed)",
      "Piz Daint, 1152..36864 MPI ranks, OSU broadcast benchmark",
      "binomial (native) and binomial (ours) track each other closely; "
      "corrected gossip is consistently slower");

  support::Table table({"ranks", "binomial native p50(us)", "binomial ours p50(us)",
                        "gossip p50(us)", "gossip timeouts"});

  for (topo::Rank procs = 12; procs <= env.procs; procs *= 2) {
    const topo::Tree tree = topo::make_binomial_interleaved(procs);
    rt::Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0));
    rt::HarnessOptions options;
    options.warmup = 3;
    options.iterations = static_cast<std::int64_t>(env.reps);

    const rt::HarnessResult native = rt::measure_broadcast(
        engine, [&] { return std::make_unique<NativeBinomial>(tree); }, options);

    const std::string scale = ",reps=" + std::to_string(env.reps) +
                              ",warmup=3,seed=" + std::to_string(env.seed) +
                              ",exec=rt-sharded";
    const exp::RunRecord ours = exp::run(exp::parse_run_spec(
        "bcast:binomial:none:overlapped@P=" + std::to_string(procs) + scale));
    const exp::RunRecord gossip = exp::run(exp::parse_run_spec(
        "bcast:binomial:opportunistic:4:overlapped@P=" + std::to_string(procs) +
        ",proto=gossip,gossip-rounds=" + std::to_string(gossip_rounds_for(procs)) +
        ",deadline-ms=3000" + scale));

    table.add_row({support::fmt_int(procs), support::fmt(native.median_us(), 1),
                   support::fmt(ours.latency_p50, 1),
                   support::fmt(gossip.latency_p50, 1),
                   support::fmt_int(gossip.timeouts)});
  }
  bench::emit(env, table);
  return 0;
}
