#include "probe.hpp"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>

namespace ctbench {

// --- Tally -------------------------------------------------------------------

std::int64_t Tally::total_calls() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : calls) total += c;
  return total;
}

void Tally::add(const Tally& other) noexcept {
  for (int i = 0; i < kCalls; ++i) calls[i] += other.calls[i];
  for (int i = 0; i < kSends; ++i) sends[i] += other.sends[i];
  busy_ns += other.busy_ns;
  timers_set += other.timers_set;
  colored += other.colored;
  factory_calls += other.factory_calls;
  factory_ns += other.factory_ns;
}

namespace {

thread_local Tally* t_slot = nullptr;

// A forked child must not keep adding into the slot of the thread that
// forked it: that slot belongs to the parent.
void forget_slot_in_child() { t_slot = nullptr; }

}  // namespace

TallyArena::TallyArena() {
  void* memory = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("ct_bench: mmap of the tally arena failed");
  shared_ = new (memory) Shared{};
  shared_->first_factory_ns.store(std::numeric_limits<std::int64_t>::max());
  shared_->first_measured_ns.store(std::numeric_limits<std::int64_t>::max());
  ::pthread_atfork(nullptr, nullptr, forget_slot_in_child);
}

TallyArena& TallyArena::instance() {
  static TallyArena arena;
  return arena;
}

Tally& TallyArena::local() {
  if (t_slot == nullptr) {
    const std::size_t slot = shared_->next_slot.fetch_add(1);
    if (slot >= kSlots) throw std::runtime_error("ct_bench: tally arena out of slots");
    t_slot = &shared_->slots[slot];
  }
  return *t_slot;
}

void TallyArena::reset() {
  for (Tally& slot : shared_->slots) slot = Tally{};
}

Tally TallyArena::sum() const {
  Tally total;
  const std::size_t used = std::min(shared_->next_slot.load(), kSlots);
  for (std::size_t i = 0; i < used; ++i) total.add(shared_->slots[i]);
  return total;
}

void atomic_min(std::atomic<std::int64_t>& target, std::int64_t value) {
  std::int64_t seen = target.load();
  while (value < seen && !target.compare_exchange_weak(seen, value)) {
  }
}

// --- CountingProtocol --------------------------------------------------------

namespace {

/// Forwards every call to the executor's context, counting timers and first
/// colorings. Built on the stack per handler call, like the protocols' own
/// context adapters, so it is never shared between threads.
class CountingContext final : public sim::Context {
 public:
  CountingContext(sim::Context& inner, Tally& tally) : inner_(inner), tally_(tally) {}

  sim::Time now() const override { return inner_.now(); }
  topo::Rank num_procs() const override { return inner_.num_procs(); }
  void send(topo::Rank from, topo::Rank to, sim::Tag tag, std::int64_t payload) override {
    inner_.send(from, to, tag, payload);
  }
  void set_timer(topo::Rank on, sim::Time when, std::int64_t id) override {
    ++tally_.timers_set;
    inner_.set_timer(on, when, id);
  }
  void mark_colored(topo::Rank r) override {
    if (!inner_.is_colored(r)) ++tally_.colored;
    inner_.mark_colored(r);
  }
  bool is_colored(topo::Rank r) const override { return inner_.is_colored(r); }
  void note_correction_start() override { inner_.note_correction_start(); }
  void set_rank_data(topo::Rank r, std::int64_t data) override {
    inner_.set_rank_data(r, data);
  }
  std::int64_t rank_data(topo::Rank r) const override { return inner_.rank_data(r); }

 private:
  sim::Context& inner_;
  Tally& tally_;
};

Tally::Send send_kind(sim::Tag tag) {
  switch (tag) {
    case sim::tag::kTree:
      return Tally::kTree;
    case sim::tag::kCorrection:
      return Tally::kCorrection;
    case sim::tag::kCorrReply:
      return Tally::kCorrReply;
    case sim::tag::kAck:
      return Tally::kAck;
    default:
      return Tally::kOther;
  }
}

template <class Body>
void counted(Tally::Call call, sim::Context& ctx, Body&& body) {
  Tally& tally = TallyArena::instance().local();
  const std::int64_t start = now_ns();
  CountingContext counting(ctx, tally);
  body(counting);
  tally.busy_ns += now_ns() - start;
  ++tally.calls[call];
}

}  // namespace

void CountingProtocol::begin(sim::Context& ctx) {
  counted(Tally::kBegin, ctx, [&](sim::Context& c) { inner_->begin(c); });
}

void CountingProtocol::on_receive(sim::Context& ctx, topo::Rank me, const sim::Message& msg) {
  counted(Tally::kReceive, ctx, [&](sim::Context& c) { inner_->on_receive(c, me, msg); });
}

void CountingProtocol::on_sent(sim::Context& ctx, topo::Rank me, const sim::Message& msg) {
  ++TallyArena::instance().local().sends[send_kind(msg.tag)];
  counted(Tally::kSent, ctx, [&](sim::Context& c) { inner_->on_sent(c, me, msg); });
}

void CountingProtocol::on_timer(sim::Context& ctx, topo::Rank me, std::int64_t id) {
  counted(Tally::kTimer, ctx, [&](sim::Context& c) { inner_->on_timer(c, me, id); });
}

// --- SpanLog -----------------------------------------------------------------

namespace {
thread_local void* t_track = nullptr;  // SpanLog::Track of the calling thread
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::enable() {
  origin_ns_ = now_ns();
  enabled_ = true;
  track();  // the enabling thread is track 0
}

SpanLog::Track& SpanLog::track() {
  if (t_track == nullptr) {
    const std::scoped_lock lock(mutex_);
    tracks_.push_back(std::make_unique<Track>());
    tracks_.back()->index = static_cast<int>(tracks_.size()) - 1;
    t_track = tracks_.back().get();
  }
  return *static_cast<Track*>(t_track);
}

std::int64_t SpanLog::open(const char* layer, const char* name, std::int64_t parent) {
  Track& t = track();
  Span span;
  span.layer = layer;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent != kInherit ? parent
                : t.open.empty()   ? -1
                                   : t.spans[t.open.back()].id;
  span.start_ns = now_ns() - origin_ns_;
  span.track = t.index;
  t.open.push_back(t.spans.size());
  t.spans.push_back(span);
  return span.id;
}

void SpanLog::close(std::int64_t id) {
  Track& t = track();
  if (t.open.empty() || t.spans[t.open.back()].id != id) {
    // Called from ~SpanScope, so a mismatch (a bug) cannot be thrown.
    std::fprintf(stderr, "ct_bench: spans must close in LIFO order per thread\n");
    std::abort();
  }
  t.spans[t.open.back()].end_ns = now_ns() - origin_ns_;
  t.open.pop_back();
}

std::int64_t SpanLog::current() const {
  if (!enabled_ || t_track == nullptr) return -1;
  const Track& t = *static_cast<const Track*>(t_track);
  return t.open.empty() ? -1 : t.spans[t.open.back()].id;
}

SpanSummary SpanLog::summarize() const {
  const std::scoped_lock lock(mutex_);
  SpanSummary out;
  for (const auto& t : tracks_) {
    // Spans on one thread nest (RAII, LIFO), so the same-track children of a
    // span are disjoint and inside it: self = duration - sum(children).
    std::map<std::int64_t, std::int64_t> child_ns;
    for (const Span& s : t->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const Span& s : t->spans) {
      const auto it = child_ns.find(s.id);
      const std::int64_t self =
          (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
      out.self_s_by_layer[s.layer] += static_cast<double>(self) * 1e-9;
      if (t->index == 0) out.main_self_s += static_cast<double>(self) * 1e-9;
      ++out.spans;
    }
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path, const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::scoped_lock lock(mutex_);
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
               "\"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (const auto& t : tracks_) {
    for (const Span& s : t->spans) {
      std::fprintf(f,
                   ",\n{\"ph\": \"X\", \"cat\": \"%s\", \"name\": \"%s\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %lld, \"parent\": %lld}}",
                   s.layer, s.name, s.track, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id), static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ctbench
