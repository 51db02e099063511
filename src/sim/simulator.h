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
// the priority queue holds 24-byte {time, seq, node*} entries. Stale
// EventIds (fired, cancelled, or recycled) are rejected via a per-node
// generation tag packed into the id, so cancel() keeps its "any id is safe"
// contract.
//
// The heap is kept close to the live events. Cancellation is lazy (O(1)):
// the node is recycled at once and its heap entry is discarded by sequence
// number when it pops. A timer that moves on every ACK (TCP's RTO) is
// re-armed in place instead: rearm() pushes a new entry only when the timer
// moves earlier; a timer moved later keeps its queued entry, which is
// re-pushed at the new position when it pops. Work that needs no callback
// of its own can take a sequence number with reserve_seq() and settle
// lazily once has_passed() says its position in the order has gone by; the
// link queue settles packet departures that way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
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

}  // namespace detail

class Simulator {
 public:
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
  /// Entries pushed onto the event queue so far: one per schedule, plus
  /// one per rearm() that moves a timer earlier and per re-push of a timer
  /// moved later. With executed_events(), the queue work of a run.
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
    EventNode* next_free = nullptr;  // intrusive free list link
    // While pending: the event fires at (time, seq). Its earliest entry in
    // queue_ is (entry_time, entry_seq), never later than (time, seq); when
    // that entry pops before (time, seq) is due, it is re-pushed there.
    // Other entries naming this node are superseded and discarded by seq.
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
    bool operator>(const QueueEntry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  EventNode* allocate_node();
  void release_node(EventNode* node);
  /// The node `id` names if that event is pending, else nullptr.
  EventNode* pending_node(EventId id) const noexcept;
  void push_entry(Time t, std::uint64_t seq, EventNode* node) {
    queue_.push(QueueEntry{t, seq, node});
    ++pushes_;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;  // seq of the event firing (or last fired)
  std::uint64_t executed_ = 0;
  std::uint64_t pushes_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  // Pool backing storage: nodes are allocated in blocks and never freed
  // until the simulator dies; nodes_ maps slot → node for cancel().
  std::vector<std::unique_ptr<EventNode[]>> blocks_;
  std::vector<EventNode*> nodes_;
  EventNode* free_list_ = nullptr;
  std::function<void(Time)> fire_hook_;
};

}  // namespace h2push::sim
