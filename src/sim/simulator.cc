#include "sim/simulator.h"

namespace h2push::sim {

namespace {
constexpr std::size_t kBlockSize = 128;  // nodes per pool block
}  // namespace

Simulator::EventNode* Simulator::allocate_node() {
  if (free_list_ == nullptr) {
    auto block = std::make_unique<EventNode[]>(kBlockSize);
    nodes_.reserve(nodes_.size() + kBlockSize);
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      EventNode* node = &block[i];
      node->slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(node);
      node->next = free_list_;
      free_list_ = node;
    }
    blocks_.push_back(std::move(block));
  }
  EventNode* node = free_list_;
  free_list_ = node->next;
  node->next = nullptr;
  return node;
}

void Simulator::release_node(EventNode* node) {
  // Stale first, so a cancel() reached from the callback's destructor is a
  // no-op for this node.
  node->pending = false;
  ++node->generation;  // invalidate outstanding EventIds for this node
  node->lane = nullptr;
  node->fn.reset();
  node->next = free_list_;
  free_list_ = node;
}

Simulator::EventNode* Simulator::pending_node(EventId id) const noexcept {
  const std::uint64_t slot_plus_one = id & 0xffffffffULL;
  if (slot_plus_one == 0 || slot_plus_one > nodes_.size()) return nullptr;
  EventNode* node = nodes_[slot_plus_one - 1];
  if (node->generation != static_cast<std::uint32_t>(id >> 32)) {
    return nullptr;  // already fired or cancelled-and-recycled: stale id
  }
  return node->pending ? node : nullptr;
}

void Simulator::cancel(EventId id) {
  EventNode* node = pending_node(id);
  if (node == nullptr) return;
  --pending_;
  release_node(node);
}

bool Simulator::rearm(EventId id, Time t) {
  EventNode* node = pending_node(id);
  if (node == nullptr) return false;
  if (t < now_) t = now_;
  node->time = t;
  node->seq = next_seq_++;
  // A later target keeps the queued entry, which step() re-pushes when it
  // pops; only a move earlier needs an entry of its own.
  if (t < node->entry_time) {
    node->entry_time = t;
    node->entry_seq = node->seq;
    push_entry(t, node->seq, node);
  }
  return true;
}

bool Simulator::step(Time limit) {
  while (!heap_.empty()) {
    const QueueEntry top = heap_.top();
    if (top.time > limit) return false;
    EventNode* node = top.node;
    // Superseded by an earlier rearm, or the node was cancelled (and maybe
    // recycled): seqs are never reused, so the entry no longer matches.
    const bool stale = !node->pending || top.seq != node->entry_seq;
    // The node whose entry takes the top slot instead of a pop, if any.
    EventNode* successor = nullptr;
    if (!stale) {
      if (Lane* lane = node->lane) {
        // A lane's head: the next event in its lane takes the entry's slot.
        successor = node->next;
        lane->head_ = successor;
        if (successor == nullptr) lane->tail_ = nullptr;
      } else if (top.seq != node->seq) {
        // Re-armed later: move the entry to the event's position. This is
        // queue upkeep, not an event: now() and the fire hook are
        // untouched.
        node->entry_time = node->time;
        node->entry_seq = node->seq;
        successor = node;
      }
    }
    if (successor != nullptr) {
      heap_.replace_top(
          QueueEntry{successor->time, successor->seq, successor});
      ++pushes_;
    } else {
      heap_.pop();
    }
    if (stale || successor == node) continue;
    // Firing: cancel() and rearm() of this event's id are no-ops from here
    // on (including from inside its own callback).
    node->pending = false;
    --pending_;
    now_ = top.time;
    current_seq_ = top.seq;
    ++executed_;
    if (fire_hook_) fire_hook_(top.time);
    node->fn();
    release_node(node);
    return true;
  }
  return false;
}

void Simulator::run(Time deadline) {
  while (step(deadline)) {
  }
}

std::size_t Simulator::pooled_nodes() const noexcept {
  std::size_t n = 0;
  for (const EventNode* node = free_list_; node != nullptr;
       node = node->next) {
    ++n;
  }
  return n;
}

}  // namespace h2push::sim
