#pragma once
// Delivery structures for the sharded M:N runtime (DESIGN.md §4c, §4f).
// The kinds of traffic a shard sees, plus parking:
//
//  * LocalFifo — intra-shard delivery. A plain growable ring buffer, one per
//    rank, touched only by the worker thread that owns the rank's shard, so
//    pushes and pops are straight-line code with no atomics or locks.
//
//  * StagedQueue — a shard's outgoing cross-shard envelopes per
//    destination, staged during a pass and published at every step
//    checkpoint (kStepCheckpoint, rt/stepper.hpp) and at the pass end; the
//    backlog behind a full ring waits here, in order.
//
//  * SpscRing — cross-shard delivery. One bounded lock-free ring per
//    *ordered shard pair*: exactly one producing shard, exactly one
//    consuming shard, so the only synchronization is an acquire/release pair
//    on the head and tail indices. Batches amortize even that: one release
//    store publishes a whole staged batch, one acquire load claims every
//    pending envelope. Per-sender FIFO holds by construction — a sender's
//    envelopes to one destination traverse a single ring in push order.
//
//  * Doorbell — parking for the mesh, where there is no lock to sleep on.
//    An eventcount: waiters advertise themselves, producers ring only when
//    someone is parked, and a seq_cst fence pair on each side closes the
//    classic sleep/publish race without touching the mutex on the hot path.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "rt/envelope.hpp"

namespace ct::rt {

/// Growable power-of-two ring buffer of envelopes. Single-threaded by
/// design: only the shard worker that owns the receiving rank touches it.
///
/// The first four slots live inline in the object: tree traffic delivers
/// one or two envelopes to a rank per pass, so with a heap-backed ring the
/// per-rank array was mostly pointers to 16-slot allocations holding one
/// envelope each — P allocations per engine and an extra cache-miss
/// indirection on every delivery. The inline tier removes both for the
/// common case; rank 0 and other fan-in hot spots spill to the heap ring
/// exactly as before.
class LocalFifo {
 public:
  static constexpr std::size_t kInlineSlots = 4;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(const Envelope& envelope) {
    const std::size_t capacity = buffer_.empty() ? kInlineSlots : buffer_.size();
    if (size_ == capacity) {
      grow();
      buffer_[(head_ + size_) & (buffer_.size() - 1)] = envelope;
    } else if (buffer_.empty()) {
      inline_[(head_ + size_) & (kInlineSlots - 1)] = envelope;
    } else {
      buffer_[(head_ + size_) & (buffer_.size() - 1)] = envelope;
    }
    ++size_;
  }

  bool pop(Envelope& out) {
    if (size_ == 0) return false;
    if (buffer_.empty()) {
      out = inline_[head_];
      head_ = (head_ + 1) & (kInlineSlots - 1);
    } else {
      out = buffer_[head_];
      head_ = (head_ + 1) & (buffer_.size() - 1);
    }
    --size_;
    return true;
  }

  void clear() noexcept { head_ = size_ = 0; }

 private:
  void grow() {
    const std::size_t capacity = buffer_.empty() ? 4 * kInlineSlots : buffer_.size() * 2;
    std::vector<Envelope> next(capacity);
    if (buffer_.empty()) {
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = inline_[(head_ + i) & (kInlineSlots - 1)];
      }
    } else {
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = buffer_[(head_ + i) & (buffer_.size() - 1)];
      }
    }
    buffer_.swap(next);
    head_ = 0;
  }

  Envelope inline_[kInlineSlots];   // tier 0: no allocation, no indirection
  std::vector<Envelope> buffer_;    // tier 1 (power-of-two), engaged on spill
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One shard's outgoing envelopes for one destination shard, in send order,
/// waiting for room in the pair's ring. Stored in fixed-size blocks: a
/// backlog behind a full ring grows without reallocating (a doubling vector
/// briefly holds two copies of it) and drains from the front without moving
/// the rest. Measured peak backlog for one destination: ~8k envelopes on the
/// fault-free 16 Ki ladder, ~4k under checked correction with crashes and
/// drops at 1 Ki, ~137k at 16 Ki where dropped probes make walks. Drained
/// blocks are kept for reuse, so a ladder that refills the same blocks every
/// epoch allocates nothing.
class StagedQueue {
 public:
  static constexpr std::size_t kBlock = 4096;

  bool empty() const noexcept { return blocks_.empty(); }

  void push_back(const Envelope& envelope) {
    if (blocks_.empty() || blocks_.back().size() == kBlock) {
      if (spare_.empty()) {
        blocks_.emplace_back().reserve(kBlock);
      } else {
        blocks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
    }
    blocks_.back().push_back(envelope);
  }

  /// Offers the queue front to `send(data, n)`, which returns how many
  /// envelopes it accepted, one block at a time; stops at the first partial
  /// accept, so order is kept. Returns whether anything was accepted.
  template <class Send>
  bool flush(Send&& send) {
    bool any = false;
    while (!blocks_.empty()) {
      const std::vector<Envelope>& front = blocks_.front();
      const std::size_t accepted = send(front.data() + head_, front.size() - head_);
      any |= accepted > 0;
      head_ += accepted;
      if (head_ < front.size()) break;
      retire_front();
    }
    return any;
  }

  void clear() {
    while (!blocks_.empty()) retire_front();
  }

 private:
  void retire_front() {
    blocks_.front().clear();
    spare_.push_back(std::move(blocks_.front()));
    blocks_.pop_front();
    head_ = 0;
  }

  std::deque<std::vector<Envelope>> blocks_;  // staged, oldest first; none drained
  std::vector<std::vector<Envelope>> spare_;  // drained blocks awaiting reuse
  std::size_t head_ = 0;                      // sent prefix of the front block
};

/// Bounded lock-free SPSC ring of envelopes for one ordered shard pair.
/// Producer and consumer touch disjoint cache lines (indices padded apart,
/// each side caching the other's last-seen index), so an uncontended
/// push+pop round trip costs two atomic RMW-free publishes. Capacity is
/// rounded up to a power of two. Backpressure is cooperative: push_batch
/// accepts a prefix and the producer keeps the rest staged.
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 1)) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer: appends up to `n` envelopes of `data` in order; returns how
  /// many were accepted (a full ring accepts a prefix). One release store
  /// publishes the whole batch.
  std::size_t push_batch(const Envelope* data, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - static_cast<std::size_t>(tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(tail - head_cache_);
    }
    const std::size_t accepted = std::min(n, free);
    for (std::size_t i = 0; i < accepted; ++i) {
      slots_[static_cast<std::size_t>(tail + i) & mask_] = data[i];
    }
    if (accepted > 0) tail_.store(tail + accepted, std::memory_order_release);
    return accepted;
  }

  /// Consumer: visits every pending envelope in FIFO order through `fn`
  /// (const reference into the ring slot — no intermediate copy) and frees
  /// the whole batch with one release store; returns how many were
  /// consumed. `fn` may push into LocalFifos or other consumer-owned
  /// structures but must not touch this ring.
  template <class Fn>
  std::size_t consume_all(Fn&& fn) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return 0;
    }
    const auto pending = static_cast<std::size_t>(tail_cache_ - head);
    for (std::size_t i = 0; i < pending; ++i) {
      fn(static_cast<const Envelope&>(slots_[static_cast<std::size_t>(head + i) & mask_]));
    }
    head_.store(head + pending, std::memory_order_release);
    return pending;
  }

  /// Resets the ring between epochs. Caller must guarantee both sides are
  /// quiescent (the engine's epoch barrier does).
  void clear() noexcept {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    head_cache_ = 0;
    tail_cache_ = 0;
  }

 private:
  std::size_t mask_;
  std::vector<Envelope> slots_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer publishes
  alignas(64) std::uint64_t head_cache_ = 0;        // producer-local
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer publishes
  alignas(64) std::uint64_t tail_cache_ = 0;        // consumer-local
};

/// Eventcount for the mesh path: lets a shard park when its incoming rings
/// are empty without producers paying a lock on every publish. Producers
/// call notify() after a publish — it is a single seq_cst fence plus one
/// relaxed load unless a waiter is actually parked. The fence pair (waiter:
/// advertise, fence, re-check rings; producer: publish, fence, check
/// waiters) guarantees at least one side observes the other, so a publish
/// concurrent with wait entry either wakes the waiter or is seen by its
/// re-check.
class Doorbell {
 public:
  /// Producer side: wake the owner if it is (or is about to be) parked.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    {
      const std::scoped_lock lock(mutex_);
      ++generation_;
    }
    cv_.notify_all();
  }

  /// Unconditional wake (epoch end, shutdown).
  void kick() {
    {
      const std::scoped_lock lock(mutex_);
      ++generation_;
    }
    cv_.notify_all();
  }

  /// Owner side: parks until `has_mail()` turns true, a notify/kick fires,
  /// or `timeout` elapses. `has_mail` must be safe to call repeatedly (it
  /// polls the incoming rings).
  template <class Rep, class Period, class Pred>
  void wait(std::chrono::duration<Rep, Period> timeout, Pred&& has_mail) {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!has_mail()) {
      std::unique_lock lock(mutex_);
      const std::uint64_t entry_generation = generation_;
      cv_.wait_for(lock, timeout, [&] {
        return generation_ != entry_generation || has_mail();
      });
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
};

}  // namespace ct::rt
