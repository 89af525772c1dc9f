#include "rt/membership.hpp"

namespace ct::rt {

MembershipView MembershipView::identity(topo::Rank num_global) {
  MembershipView view;
  view.num_global_ = num_global;
  view.num_live_ = num_global;
  view.generation_ = 0;
  view.identity_ = true;
  return view;
}

MembershipView MembershipView::over_survivors(const std::vector<char>& dead,
                                              std::int32_t generation) {
  const auto num_global = static_cast<topo::Rank>(dead.size());
  MembershipView view;
  view.num_global_ = num_global;
  view.generation_ = generation;

  topo::Rank live = 0;
  for (const char d : dead) live += !d;
  view.num_live_ = live;
  if (live == num_global) {
    // Everybody survived (or everybody revived): keep the identity fast
    // path so callers can skip the remap wrapper entirely.
    view.identity_ = true;
    return view;
  }

  view.identity_ = false;
  view.live_.reserve(static_cast<std::size_t>(live));
  view.dense_.assign(static_cast<std::size_t>(num_global), topo::kNoRank);
  for (topo::Rank g = 0; g < num_global; ++g) {
    if (dead[static_cast<std::size_t>(g)]) continue;
    view.dense_[static_cast<std::size_t>(g)] =
        static_cast<topo::Rank>(view.live_.size());
    view.live_.push_back(g);
  }
  return view;
}

}  // namespace ct::rt
