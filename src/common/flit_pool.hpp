// Per-network flit arena: an index-based slab pool plus an intrusive
// FIFO over it.
//
// Source queues and SCARAB staging previously lived in std::deque, so
// every injection burst touched the global allocator on the hot path.
// The pool recycles fixed slots through a freelist: after a short
// ramp-up (or an up-front reserve) the steady state performs no heap
// traffic at all, and `live()` gives tests an exact leak check — a
// drained network must report zero live slots.
//
// A slot holds a *run*: a flit plus a count of the flits that follow it
// and differ from it only in `seq` (seq, seq + 1, ...).  Every flit is a
// head flit (paper section II.A), so while a packet waits at its source
// its flits are exactly such a run, and the queue spends one slot per
// packet instead of one per flit.
//
// Indices are 32-bit and stable across pool growth (the backing vector
// may reallocate, so *references* returned by at() are invalidated by
// the next acquire; hold indices, not references).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flit.hpp"
#include "snapshot/serialize.hpp"

namespace dxbar {

class FlitPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNil = ~Index{0};

  FlitPool() = default;

  /// Pre-sizes the slab so steady-state traffic never allocates.
  void reserve(std::size_t n) { nodes_.reserve(n); }

  /// Copies `f` into a recycled (or fresh) slot holding a run of `run`
  /// flits, and returns its index.
  Index acquire(const Flit& f, std::uint16_t run = 1) {
    Index idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<Index>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx].flit = f;
    nodes_[idx].next = kNil;
    nodes_[idx].run = run;
    ++live_;
    return idx;
  }

  /// Returns a slot to the freelist.  The flit value becomes garbage.
  void release(Index idx) {
    assert(idx < nodes_.size());
    assert(live_ > 0);
    nodes_[idx].next = free_head_;
    free_head_ = idx;
    --live_;
  }

  /// The first flit of the slot's run.
  [[nodiscard]] Flit& at(Index idx) {
    assert(idx < nodes_.size());
    return nodes_[idx].flit;
  }
  [[nodiscard]] const Flit& at(Index idx) const {
    assert(idx < nodes_.size());
    return nodes_[idx].flit;
  }

  /// Flits in the slot's run: at(idx) and the run - 1 that follow it.
  [[nodiscard]] std::uint16_t& run(Index idx) {
    assert(idx < nodes_.size());
    return nodes_[idx].run;
  }
  [[nodiscard]] std::uint16_t run(Index idx) const {
    assert(idx < nodes_.size());
    return nodes_[idx].run;
  }

  [[nodiscard]] Index next(Index idx) const {
    assert(idx < nodes_.size());
    return nodes_[idx].next;
  }
  void set_next(Index idx, Index n) {
    assert(idx < nodes_.size());
    nodes_[idx].next = n;
  }

  /// Slots currently acquired and not yet released ("live allocations").
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Total slots ever created (high-water mark of concurrent slots).
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    Flit flit;
    Index next = kNil;
    std::uint16_t run = 1;  // sits in the padding after `next`
  };
  static_assert(sizeof(void*) != 8 || sizeof(Node) == 56,
                "the run count must not grow the slot");
  std::vector<Node> nodes_;
  Index free_head_ = kNil;
  std::size_t live_ = 0;
};

/// FIFO of pooled flits with O(1) push_back / push_front / pop_front —
/// the operation set the injection queues need.  Intrusively linked
/// through the pool, so the queue itself is three words and never
/// allocates.  Flits pushed at the back that continue the tail's run
/// (equal but for `seq`, which is the run's next) join the tail slot.
class PooledFlitDeque {
 public:
  /// Wires the backing pool; the queue must be empty when re-attached.
  void attach_pool(FlitPool* pool) noexcept {
    assert(size_ == 0);
    pool_ = pool;
  }

  /// Flits queued (a run counts each of its flits).
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The next flit pop_front returns.  It lives in the head slot, so the
  /// reference stays valid (now naming the next flit) when pop_front
  /// leaves the slot holding the rest of its run.
  [[nodiscard]] const Flit& front() const {
    assert(!empty());
    return pool_->at(head_);
  }

  /// Appends the `n` flits `head.seq` .. `head.seq + n - 1`, otherwise
  /// equal to `head`.
  void push_run(const Flit& head, std::uint16_t n) {
    assert(n >= 1 && head.seq + n - 1 <= 0xFFFF);
    size_ += n;
    if (tail_ != FlitPool::kNil && continues_tail(head, n)) {
      pool_->run(tail_) = static_cast<std::uint16_t>(pool_->run(tail_) + n);
      return;
    }
    const FlitPool::Index idx = pool_->acquire(head, n);
    if (tail_ == FlitPool::kNil) {
      head_ = tail_ = idx;
    } else {
      pool_->set_next(tail_, idx);
      tail_ = idx;
    }
  }

  void push_back(const Flit& f) { push_run(f, 1); }

  void push_front(const Flit& f) {
    const FlitPool::Index idx = pool_->acquire(f);
    pool_->set_next(idx, head_);
    head_ = idx;
    if (tail_ == FlitPool::kNil) tail_ = idx;
    ++size_;
  }

  /// Removes and returns the front flit.  A run longer than one stays in
  /// its slot, advanced to its next flit; the last flit frees the slot.
  Flit pop_front() {
    assert(!empty());
    const FlitPool::Index idx = head_;
    Flit& head = pool_->at(idx);
    const Flit f = head;
    std::uint16_t& run = pool_->run(idx);
    if (run > 1) {
      ++head.seq;
      --run;
    } else {
      head_ = pool_->next(idx);
      if (head_ == FlitPool::kNil) tail_ = FlitPool::kNil;
      pool_->release(idx);
    }
    --size_;
    return f;
  }

  /// Visits every queued flit front-to-back, each flit of a run in seq
  /// order, without mutating the queue.
  template <typename F>
  void for_each(F&& f) const {
    for (FlitPool::Index i = head_; i != FlitPool::kNil; i = pool_->next(i)) {
      Flit flit = pool_->at(i);
      for (int k = pool_->run(i); k > 0; --k) {
        f(flit);
        ++flit.seq;
      }
    }
  }

  /// Releases every queued slot back to the pool.
  void clear() {
    while (head_ != FlitPool::kNil) {
      const FlitPool::Index next = pool_->next(head_);
      pool_->release(head_);
      head_ = next;
    }
    tail_ = FlitPool::kNil;
    size_ = 0;
  }

  /// Snapshot protocol: the queue serializes by value, one flit at a
  /// time front-to-back, so runs never reach the stream; load re-forms
  /// them, as push_back merges each flit into a run it continues.  Pool
  /// slot assignment is an implementation detail the restore re-derives
  /// by re-acquiring slots, so freelist layout never has to match across
  /// a save/load round trip.
  void save(SnapshotWriter& w) const {
    w(std::uint64_t{size_});
    for_each([&](const Flit& f) { w(f); });
  }
  void load(SnapshotReader& r) {
    clear();
    const std::uint64_t n = r.count(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      Flit f;
      r(f);
      push_back(f);
    }
  }

 private:
  /// Whether `n` flits from `head` extend the tail's run: same flit but
  /// for seq, the seq right after the run's last, and room in the count.
  [[nodiscard]] bool continues_tail(const Flit& head, std::uint16_t n) const {
    const Flit& t = pool_->at(tail_);
    const int run = pool_->run(tail_);
    return head.seq == t.seq + run && run + n <= 0xFFFF &&
           head.packet == t.packet && head.packet_len == t.packet_len &&
           head.src == t.src && head.dst == t.dst &&
           head.injected_at == t.injected_at && head.born_at == t.born_at &&
           head.vc == t.vc && head.cls == t.cls &&
           head.deflections == t.deflections &&
           head.retransmits == t.retransmits && head.hops == t.hops;
  }

  FlitPool* pool_ = nullptr;
  FlitPool::Index head_ = FlitPool::kNil;
  FlitPool::Index tail_ = FlitPool::kNil;
  std::size_t size_ = 0;
};

}  // namespace dxbar
