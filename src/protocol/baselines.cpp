#include "protocol/baselines.hpp"

#include <stdexcept>

namespace ct::proto {

using sim::Message;
using topo::Rank;

namespace {
constexpr std::int64_t kDetectorTimer = 200;
constexpr std::int64_t kPullRetryTimer = 201;
/// Extra waiting time beyond the fault-free schedule before a process
/// suspects a failure (the failure-detector timeout).
constexpr sim::Time kDetectionSlack = 8;
/// Re-suspicion interval while climbing the ancestry during recovery.
constexpr sim::Time kPullInterval = 12;
}  // namespace

// ---------------------------------------------------------------------------
// DetectorTreeBroadcast
// ---------------------------------------------------------------------------

DetectorTreeBroadcast::DetectorTreeBroadcast(const topo::Tree& tree,
                                             const sim::LogP& params,
                                             std::int64_t payload)
    : tree_(tree),
      params_(params),
      payload_(payload),
      started_(static_cast<std::size_t>(tree.num_procs()), 0),
      pull_target_(static_cast<std::size_t>(tree.num_procs()), topo::kNoRank),
      pending_pulls_(static_cast<std::size_t>(tree.num_procs())) {}

sim::Time DetectorTreeBroadcast::expected_colored_by(Rank r) const {
  // Per-level worst case: a parent may serialise up to max_fanout sends
  // before ours, then the message flies for message_cost.
  const sim::Time step =
      static_cast<sim::Time>(tree_.max_fanout()) * params_.port_period() +
      params_.message_cost();
  return static_cast<sim::Time>(tree_.depth(r)) * step;
}

void DetectorTreeBroadcast::begin(sim::Context& ctx) {
  for (Rank r = 1; r < tree_.num_procs(); ++r) {
    ctx.set_timer(r, expected_colored_by(r) + kDetectionSlack, kDetectorTimer);
  }
  ctx.set_rank_data(tree_.root(), payload_);
  color(ctx, tree_.root(), payload_);
}

void DetectorTreeBroadcast::color(sim::Context& ctx, Rank me, std::int64_t data) {
  if (!ctx.is_colored(me)) ctx.set_rank_data(me, data);
  ctx.mark_colored(me);
  if (started_[static_cast<std::size_t>(me)]) return;
  started_[static_cast<std::size_t>(me)] = 1;
  for (Rank child : tree_.children(me)) {
    ctx.send(me, child, sim::tag::kTree, 0);
  }
  // Anyone who pulled from us while we were still waiting gets served now.
  for (Rank requester : pending_pulls_[static_cast<std::size_t>(me)]) {
    ctx.send(me, requester, sim::tag::kPullReply, 0);
  }
  pending_pulls_[static_cast<std::size_t>(me)].clear();
}

void DetectorTreeBroadcast::climb(sim::Context& ctx, Rank me) {
  auto& target = pull_target_[static_cast<std::size_t>(me)];
  if (target == topo::kNoRank) {
    target = tree_.parent(me);
  } else if (target != tree_.root()) {
    target = tree_.parent(target);  // suspect one level higher
  } else {
    // Already pulling from the root (assumed alive, §2.1): keep retrying —
    // its reply may simply still be in flight.
  }
  ctx.send(me, target, sim::tag::kPull, 0);
  ctx.set_timer(me, ctx.now() + kPullInterval, kPullRetryTimer);
}

void DetectorTreeBroadcast::on_receive(sim::Context& ctx, Rank me, const Message& msg) {
  switch (msg.tag) {
    case sim::tag::kTree:
    case sim::tag::kPullReply:
      color(ctx, me, msg.data);
      break;
    case sim::tag::kPull:
      if (ctx.is_colored(me)) {
        ctx.send(me, msg.src, sim::tag::kPullReply, 0);
      } else {
        pending_pulls_[static_cast<std::size_t>(me)].push_back(msg.src);
        // We are stuck too — make sure our own recovery is running; our
        // detector timer may not have fired yet.
        if (pull_target_[static_cast<std::size_t>(me)] == topo::kNoRank) {
          climb(ctx, me);
        }
      }
      break;
    default:
      throw std::logic_error("unexpected message tag in detector tree broadcast");
  }
}

void DetectorTreeBroadcast::on_sent(sim::Context&, Rank, const Message&) {}

void DetectorTreeBroadcast::on_timer(sim::Context& ctx, Rank me, std::int64_t id) {
  if (ctx.is_colored(me)) return;
  if (id == kDetectorTimer || id == kPullRetryTimer) {
    climb(ctx, me);
  }
}

// ---------------------------------------------------------------------------
// MultiTreeBroadcast
// ---------------------------------------------------------------------------

MultiTreeBroadcast::MultiTreeBroadcast(std::vector<topo::Tree> trees, std::int64_t payload)
    : trees_(std::move(trees)), payload_(payload) {
  if (trees_.empty()) throw std::invalid_argument("multi-tree broadcast needs >= 1 tree");
  for (const topo::Tree& tree : trees_) {
    if (tree.num_procs() != trees_.front().num_procs()) {
      throw std::invalid_argument("all trees must span the same rank set");
    }
    started_.emplace_back(static_cast<std::size_t>(tree.num_procs()), 0);
  }
}

void MultiTreeBroadcast::begin(sim::Context& ctx) {
  ctx.set_rank_data(0, payload_);
  ctx.mark_colored(0);
  for (std::size_t t = 0; t < trees_.size(); ++t) forward(ctx, 0, t);
}

void MultiTreeBroadcast::forward(sim::Context& ctx, Rank me, std::size_t tree_index) {
  auto& started = started_[tree_index][static_cast<std::size_t>(me)];
  if (started) return;
  started = 1;
  for (Rank child : trees_[tree_index].children(me)) {
    // payload carries the tree index so the receiver forwards on the right
    // tree; different trees progress independently (SplitStream-style).
    ctx.send(me, child, sim::tag::kTree, static_cast<std::int64_t>(tree_index));
  }
}

void MultiTreeBroadcast::on_receive(sim::Context& ctx, Rank me, const Message& msg) {
  if (msg.tag != sim::tag::kTree) {
    throw std::logic_error("unexpected message tag in multi-tree broadcast");
  }
  if (!ctx.is_colored(me)) ctx.set_rank_data(me, msg.data);
  ctx.mark_colored(me);
  forward(ctx, me, static_cast<std::size_t>(msg.payload));
}

void MultiTreeBroadcast::on_sent(sim::Context&, Rank, const Message&) {}

std::vector<topo::Tree> make_rotated_trees(Rank num_procs, int count) {
  if (count < 1) throw std::invalid_argument("tree count must be >= 1");
  const topo::Tree base = topo::make_binomial_interleaved(num_procs);
  std::vector<topo::Tree> trees;
  trees.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    if (t == 0 || num_procs <= 2) {
      trees.push_back(topo::make_binomial_interleaved(num_procs));
      continue;
    }
    // Rotate non-root labels by t * (P-1)/count so that low (inner) ranks
    // of the base tree land on high (mostly leaf) labels.
    const Rank shift = static_cast<Rank>(
        (static_cast<std::int64_t>(t) * (num_procs - 1)) / count);
    std::vector<Rank> sigma(static_cast<std::size_t>(num_procs));
    sigma[0] = 0;
    for (Rank r = 1; r < num_procs; ++r) {
      sigma[static_cast<std::size_t>(r)] =
          static_cast<Rank>(1 + (r - 1 + shift) % (num_procs - 1));
    }
    trees.push_back(topo::relabel_tree(base, sigma));
  }
  return trees;
}

}  // namespace ct::proto
