// RFC 7540 §5.3 stream dependency tree.
//
// Streams form a tree rooted at stream 0. A stream's children only receive
// resources when the stream itself cannot proceed — the "parent-first" rule
// that h2o implements and that the paper's Fig. 5(a) shows delaying pushed
// resources behind a non-blocking parent. Among siblings, capacity is shared
// proportionally to weight; we realize this with deterministic weighted
// round-robin credits at frame granularity.
//
// The owner marks which streams have sendable data (set_ready()); every
// node counts the ready streams in its subtree, so pick() descends only
// into subtrees that have something to send and returns at once when
// nothing is ready.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "h2/frame.h"

namespace h2push::h2 {

class PriorityTree {
 public:
  PriorityTree();
  // Nodes link to each other by address; a copy would point into the
  // original. Moving keeps every node where it is.
  PriorityTree(const PriorityTree&) = delete;
  PriorityTree& operator=(const PriorityTree&) = delete;
  PriorityTree(PriorityTree&&) = default;
  PriorityTree& operator=(PriorityTree&&) = default;

  /// Insert a stream, not ready. Unknown parents are created as idle
  /// placeholders (RFC 7540 §5.3.1). Exclusive insertion adopts the
  /// parent's children. An id already in the tree is reprioritized.
  void add(std::uint32_t id, const PrioritySpec& spec);

  /// PRIORITY frame: move a stream (and its subtree) to a new parent.
  /// Moving under one's own descendant first reparents that descendant
  /// (§5.3.3). An unknown id is added.
  void reprioritize(std::uint32_t id, const PrioritySpec& spec);

  /// Remove a closed stream; children are reparented to its parent.
  void remove(std::uint32_t id);

  /// Mark whether `id` has sendable data right now. Ignored for ids not
  /// in the tree and for the root.
  void set_ready(std::uint32_t id, bool ready);

  bool contains(std::uint32_t id) const { return nodes_.count(id) != 0; }
  bool is_ready(std::uint32_t id) const;
  std::uint32_t parent_of(std::uint32_t id) const;
  std::uint16_t weight_of(std::uint32_t id) const;
  /// Weighted round-robin credit (0 for ids not in the tree).
  double credit_of(std::uint32_t id) const;
  std::vector<std::uint32_t> children_of(std::uint32_t id) const;

  /// Pick the next stream to serve among the ready ones: depth-first,
  /// parent before children, weighted round-robin among sibling subtrees
  /// that hold a ready stream. Returns 0 if nothing is ready.
  std::uint32_t pick();

  /// True if `ancestor` is a (transitive) ancestor of `id`.
  bool is_ancestor(std::uint32_t ancestor, std::uint32_t id) const;

  std::size_t node_count() const { return nodes_.size(); }
  /// Ready streams in the whole tree.
  std::size_t ready_count() const { return root_->ready_count; }

  /// Recompute every node's ready count from the ready flags and the
  /// parent/child links; describes the first mismatch, nullopt if none.
  std::optional<std::string> check_ready_counts() const;

 private:
  struct Node {
    std::uint32_t id = 0;
    std::uint16_t weight = 16;
    bool ready = false;
    std::uint32_t ready_count = 0;  // ready streams in this subtree
    Node* parent = nullptr;
    std::vector<Node*> children;  // insertion-ordered
    double credit = 0;            // WRR credit
  };

  Node* find(std::uint32_t id);
  const Node* find(std::uint32_t id) const;
  /// Add `delta` to the ready count of `node` and all its ancestors.
  static void add_ready(Node* node, std::int64_t delta);
  /// Make `child` the last child of `parent` / take it out of its
  /// parent's children; both carry its ready count along.
  static void link(Node* child, Node* parent);
  static void unlink(Node* child);
  void attach(Node* node, std::uint32_t parent, bool exclusive);

  std::unordered_map<std::uint32_t, Node> nodes_;  // addresses are stable
  Node* root_;
};

}  // namespace h2push::h2
