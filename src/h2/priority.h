// RFC 7540 §5.3 stream dependency tree.
//
// Streams form a tree rooted at stream 0. A stream's children only receive
// resources when the stream itself cannot proceed — the "parent-first" rule
// that h2o implements and that the paper's Fig. 5(a) shows delaying pushed
// resources behind a non-blocking parent. Among siblings, capacity is shared
// proportionally to weight; we realize this with deterministic weighted
// round-robin credits at frame granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "h2/frame.h"

namespace h2push::h2 {

class PriorityTree {
 public:
  PriorityTree();

  /// Insert a stream. Unknown parents are created as idle placeholders
  /// (RFC 7540 §5.3.1). Exclusive insertion adopts the parent's children.
  void add(std::uint32_t id, const PrioritySpec& spec);

  /// PRIORITY frame: move a stream (and its subtree) to a new parent.
  /// Moving under one's own descendant first reparents that descendant
  /// (§5.3.3).
  void reprioritize(std::uint32_t id, const PrioritySpec& spec);

  /// Remove a closed stream; children are reparented to its parent.
  void remove(std::uint32_t id);

  bool contains(std::uint32_t id) const { return nodes_.count(id) != 0; }
  std::uint32_t parent_of(std::uint32_t id) const;
  std::uint16_t weight_of(std::uint32_t id) const;
  std::vector<std::uint32_t> children_of(std::uint32_t id) const;

  /// Pick the next stream to serve: depth-first, parent before children,
  /// weighted round-robin among sibling subtrees. `ready(id)` says whether a
  /// stream has sendable data right now. Returns 0 if nothing is ready.
  std::uint32_t pick(const std::function<bool(std::uint32_t)>& ready);

  /// True if `ancestor` is a (transitive) ancestor of `id`.
  bool is_ancestor(std::uint32_t ancestor, std::uint32_t id) const;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::uint32_t parent = 0;
    std::uint16_t weight = 16;
    std::vector<std::uint32_t> children;  // insertion-ordered
    double credit = 0;                    // WRR credit
  };

  std::uint32_t pick_subtree(std::uint32_t id,
                             const std::function<bool(std::uint32_t)>& ready,
                             bool& subtree_ready);
  void detach(std::uint32_t id);
  void attach(std::uint32_t id, std::uint32_t parent, bool exclusive);

  std::map<std::uint32_t, Node> nodes_;  // ordered for determinism
  std::vector<std::uint32_t> eligible_scratch_;  // pick_subtree only
  std::vector<std::uint32_t> probe_scratch_;     // pick_subtree only
};

}  // namespace h2push::h2
