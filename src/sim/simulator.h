// Discrete-event simulation core.
//
// A single-threaded event loop with deterministic ordering: events fire in
// (time, insertion-sequence) order, so two events scheduled for the same
// instant run in the order they were scheduled.
//
// The schedule/fire path is the simulator's hottest loop — a page-load sweep
// executes tens of millions of events — so it is allocation-free in steady
// state: callbacks live in fixed inline storage inside pooled event nodes
// (an intrusive free list recycles nodes as they fire or are cancelled), and
// the event queue is a binary heap of 24-byte {time, seq, node*} entries.
// Stale EventIds (fired, cancelled, or recycled) are rejected via a
// per-node generation tag packed into the id, so cancel() keeps its "any id
// is safe" contract.
//
// Most events are packets in flight, and those wait in lanes, not in the
// heap. A lane is a FIFO of events owned by one producer that schedules
// them in the order they fire: its times never go backwards, and sequence
// numbers rise in scheduling order, so the lane is sorted by (time, seq).
// Only the lane's head has a heap entry. When the head fires, its successor
// takes the top slot with one sift-down (replace-top), instead of a pop and
// a push. Every packet on one route crosses the same link, whose departures
// never go backwards, plus the same fixed delay, so each route's arrivals
// form such a FIFO (sim/link.h). Lane events cannot be cancelled or moved.
// The firing order is the one the same events would have had in the heap.
//
// The heap is kept close to the live events. Cancellation is lazy (O(1)):
// the node is recycled at once and its heap entry is discarded by sequence
// number when it pops. A timer that moves on every ACK (TCP's RTO) is
// re-armed in place instead: rearm() pushes a new entry only when the timer
// moves earlier; a timer moved later keeps its queued entry, which moves to
// the new position (replace-top) when it pops. Work that needs no callback
// of its own can take a sequence number with reserve_seq() and settle
// lazily once has_passed() says its position in the order has gone by; the
// link queue settles packet departures that way.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace h2push::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

namespace detail {

/// Move-nothing callable container with inline storage sized for the event
/// lambdas the network stack schedules (they capture `this` plus a handful
/// of values). Callables larger than the buffer fall back to one heap
/// allocation; none of the hot paths need it. Constructed in place inside a
/// pooled EventNode and never relocated, so no move support is required.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 64;

  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  void operator()() { invoke_(storage_); }

  void reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      destroy_ = nullptr;
      invoke_ = nullptr;
    }
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// Binary min-heap ordered by `Entry::operator<`, with the replace-top that
/// std::priority_queue lacks: one sift-down where a pop and a push would
/// take two. push and pop are std::push_heap and std::pop_heap.
template <typename Entry>
class MinHeap {
 public:
  bool empty() const noexcept { return v_.empty(); }
  std::size_t size() const noexcept { return v_.size(); }
  const Entry& top() const noexcept { return v_.front(); }

  // Inlined into every schedule_at, as std::priority_queue::push was: out
  // of line, the call cost about a tenth of a heap-only dispatch
  // (bench_micro_protocol's BM_SimDispatch).
  [[gnu::always_inline]] void push(const Entry& e) {
    v_.push_back(e);
    std::push_heap(v_.begin(), v_.end(), Later{});
  }

  void pop() {
    std::pop_heap(v_.begin(), v_.end(), Later{});
    v_.pop_back();
  }

  /// pop() followed by push(e): the hole the top leaves moves down, the
  /// earlier child rising into it, until `e` orders before both children.
  /// A lane's next event usually stops within a level or two of the top.
  void replace_top(const Entry& e) {
    const Entry value = e;  // a copy: `e` may not alias the moved entries
    Entry* const h = v_.data();
    const std::size_t n = v_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && h[child + 1] < h[child]) ++child;
      if (!(h[child] < value)) break;
      h[hole] = h[child];
      hole = child;
    }
    h[hole] = value;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return b < a;
    }
  };

  std::vector<Entry> v_;
};

}  // namespace detail

class Simulator {
  struct EventNode;

 public:
  /// A FIFO of events whose times never go backwards, owned by the one
  /// producer that schedules into it (see the file comment). Only its head
  /// waits in the event heap. It must outlive its pending events' firing,
  /// as the objects their callbacks reach must.
  class Lane {
   public:
    Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

   private:
    friend class Simulator;
    EventNode* head_ = nullptr;  // has the lane's heap entry
    EventNode* tail_ = nullptr;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to now()).
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    if (t < now_) t = now_;
    EventNode* node = allocate_node();
    node->fn.emplace(std::forward<F>(fn));
    node->pending = true;
    node->time = node->entry_time = t;
    node->seq = node->entry_seq = next_seq_++;
    ++pending_;
    push_entry(t, node->seq, node);
    return (static_cast<EventId>(node->generation) << 32) |
           static_cast<EventId>(node->slot + 1);
  }

  /// Schedule `fn` at absolute time `t` (clamped to now()) at the back of
  /// `lane`. `t` must not be earlier than the time of the lane's last
  /// pending event. The event fires at the place schedule_at(t, fn) would
  /// have given it, but cannot be cancelled or re-armed.
  template <typename F>
  void schedule_at(Lane& lane, Time t, F&& fn) {
    if (t < now_) t = now_;
    assert((lane.tail_ == nullptr || lane.tail_->time <= t) &&
           "lane events must be scheduled in time order");
    EventNode* node = allocate_node();
    node->fn.emplace(std::forward<F>(fn));
    node->pending = true;
    node->lane = &lane;
    node->time = node->entry_time = t;
    node->seq = node->entry_seq = next_seq_++;
    ++pending_;
    if (lane.tail_ == nullptr) {
      lane.head_ = node;
      push_entry(t, node->seq, node);
    } else {
      lane.tail_->next = node;
    }
    lane.tail_ = node;
  }

  /// Schedule `fn` `delay` after now().
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event and recycle its node; its queue entry is
  /// discarded when it pops. Safe to call with kInvalidEvent, an id that
  /// already fired, an id that was never issued, or an id cancelled before
  /// (all no-ops): the generation tag in the id mismatches once a node is
  /// recycled, and the pending flag rejects an event's own id while it
  /// fires, so pending_events() stays exact.
  void cancel(EventId id);

  /// Move a pending event to absolute time `t` (clamped to now()), keeping
  /// its callback and its id. Same effect as cancel(id) followed by
  /// schedule_at(t, <the same callback>): the event takes the next sequence
  /// number and fires at that position in the order. Returns false, and
  /// does nothing, when `id` is not pending (invalid, fired, cancelled or
  /// firing now); the caller then schedules a new event.
  bool rearm(EventId id, Time t);

  /// Take the sequence number an event scheduled now would get, without
  /// scheduling one. Every later event orders after it.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// True once the order has gone past position (t, seq): t is before
  /// now(), or t is now() and seq is below the event firing now (or, between
  /// events, the one that fired last).
  bool has_passed(Time t, std::uint64_t seq) const noexcept {
    return t < now_ || (t == now_ && seq < current_seq_);
  }

  /// Run the next pending event due at or before `limit`; returns false
  /// when no such event remains (the queue is empty or its next event is
  /// later than `limit`).
  bool step(Time limit = INT64_MAX);

  /// Run until the queue is empty or `deadline` is reached.
  void run(Time deadline = INT64_MAX);

  std::size_t pending_events() const noexcept { return pending_; }
  std::uint64_t executed_events() const noexcept { return executed_; }
  /// Entries placed on the event queue so far, by a push or a replace-top:
  /// one per scheduled event (a lane event's when it becomes its lane's
  /// head), plus one per rearm() that moves a timer earlier and per move of
  /// a timer moved later. With executed_events(), the queue work of a run.
  std::uint64_t queue_pushes() const noexcept { return pushes_; }

  /// Nodes currently on the free list (observability for pool tests).
  std::size_t pooled_nodes() const noexcept;

  /// Total pool capacity ever allocated (observability for pool tests:
  /// allocated_nodes() - pooled_nodes() = live nodes).
  std::size_t allocated_nodes() const noexcept { return nodes_.size(); }

  /// Invariant-checker hook, called with the fire time of every event just
  /// before its callback runs. Empty (the default) costs one branch in
  /// step(); tests install a checker that asserts time monotonicity and
  /// cross-layer conservation laws (see fuzz/invariants.h).
  void set_fire_hook(std::function<void(Time)> hook) {
    fire_hook_ = std::move(hook);
  }

 private:
  struct EventNode {
    detail::EventFn fn;
    // Intrusive link: the next node on the free list while pooled, the
    // next event of its lane while pending in one.
    EventNode* next = nullptr;
    Lane* lane = nullptr;  // the lane it waits in, or null
    // While pending: the event fires at (time, seq). Its earliest entry in
    // heap_ is (entry_time, entry_seq), never later than (time, seq); when
    // that entry reaches the top before (time, seq) is due, it moves there.
    // Other entries naming this node are superseded and discarded by seq.
    // A lane event is never moved: its one entry is (time, seq).
    Time time = 0;
    Time entry_time = 0;
    std::uint64_t seq = 0;
    std::uint64_t entry_seq = 0;
    std::uint32_t slot = 0;          // index into nodes_, stable for life
    std::uint32_t generation = 1;    // bumped on recycle; stale ids mismatch
    bool pending = false;            // scheduled, not yet fired or cancelled
  };

  struct QueueEntry {
    Time time;
    std::uint64_t seq;  // FIFO among same-time events
    EventNode* node;
    bool operator<(const QueueEntry& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  EventNode* allocate_node();
  void release_node(EventNode* node);
  /// The node `id` names if that event is pending, else nullptr.
  EventNode* pending_node(EventId id) const noexcept;
  void push_entry(Time t, std::uint64_t seq, EventNode* node) {
    heap_.push(QueueEntry{t, seq, node});
    ++pushes_;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;  // seq of the event firing (or last fired)
  std::uint64_t executed_ = 0;
  std::uint64_t pushes_ = 0;
  std::size_t pending_ = 0;
  detail::MinHeap<QueueEntry> heap_;
  // Pool backing storage: nodes are allocated in blocks and never freed
  // until the simulator dies; nodes_ maps slot → node for cancel().
  std::vector<std::unique_ptr<EventNode[]>> blocks_;
  std::vector<EventNode*> nodes_;
  EventNode* free_list_ = nullptr;
  std::function<void(Time)> fire_hook_;
};

}  // namespace h2push::sim
