#include "h2/priority.h"

#include <algorithm>
#include <cassert>

namespace h2push::h2 {

PriorityTree::PriorityTree() {
  nodes_[0] = Node{};  // stream 0 is the root
}

void PriorityTree::attach(std::uint32_t id, std::uint32_t parent,
                          bool exclusive) {
  if (nodes_.count(parent) == 0) {
    // Dependency on an unknown stream: create a default placeholder under
    // the root (RFC 7540 §5.3.1 allows idle-parent creation).
    attach(parent, 0, false);
    nodes_[parent].weight = 16;
  }
  Node& p = nodes_[parent];
  Node& n = nodes_[id];
  if (exclusive) {
    // Adopt all of the parent's current children.
    for (std::uint32_t child : p.children) {
      nodes_[child].parent = id;
      n.children.push_back(child);
    }
    p.children.clear();
  }
  n.parent = parent;
  p.children.push_back(id);
}

void PriorityTree::detach(std::uint32_t id) {
  Node& n = nodes_[id];
  Node& p = nodes_[n.parent];
  p.children.erase(std::remove(p.children.begin(), p.children.end(), id),
                   p.children.end());
}

void PriorityTree::add(std::uint32_t id, const PrioritySpec& spec) {
  if (nodes_.count(id) != 0) {
    reprioritize(id, spec);
    return;
  }
  nodes_[id] = Node{};
  nodes_[id].weight = spec.weight == 0 ? 16 : spec.weight;
  // Self-dependency is a protocol error upstream; treat as default parent
  // so the tree can never contain a cycle (§5.3.1).
  const std::uint32_t parent = spec.depends_on == id ? 0 : spec.depends_on;
  attach(id, parent, spec.exclusive);
}

void PriorityTree::reprioritize(std::uint32_t id, const PrioritySpec& spec) {
  if (nodes_.count(id) == 0) {
    add(id, spec);
    return;
  }
  if (spec.depends_on == id) return;  // self-dependency: ignore (error upstream)
  // §5.3.3: if the new parent is a descendant of `id`, first move that
  // descendant up to `id`'s old parent.
  if (is_ancestor(id, spec.depends_on)) {
    const std::uint32_t old_parent = nodes_[id].parent;
    detach(spec.depends_on);
    nodes_[spec.depends_on].parent = old_parent;
    nodes_[old_parent].children.push_back(spec.depends_on);
  }
  detach(id);
  nodes_[id].weight = spec.weight == 0 ? 16 : spec.weight;
  attach(id, spec.depends_on, spec.exclusive);
}

void PriorityTree::remove(std::uint32_t id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || id == 0) return;
  const std::uint32_t parent = it->second.parent;
  detach(id);
  // Reparent children in place, preserving order.
  for (std::uint32_t child : it->second.children) {
    nodes_[child].parent = parent;
    nodes_[parent].children.push_back(child);
  }
  nodes_.erase(it);
}

std::uint32_t PriorityTree::parent_of(std::uint32_t id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second.parent;
}

std::uint16_t PriorityTree::weight_of(std::uint32_t id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? 16 : it->second.weight;
}

std::vector<std::uint32_t> PriorityTree::children_of(std::uint32_t id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? std::vector<std::uint32_t>{}
                            : it->second.children;
}

bool PriorityTree::is_ancestor(std::uint32_t ancestor,
                               std::uint32_t id) const {
  std::uint32_t cur = id;
  while (cur != 0) {
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) return false;
    cur = it->second.parent;
    if (cur == ancestor) return true;
  }
  return ancestor == 0;
}

std::uint32_t PriorityTree::pick_subtree(
    std::uint32_t id, const std::function<bool(std::uint32_t)>& ready,
    bool& subtree_ready) {
  Node& node = nodes_[id];
  if (id != 0 && ready(id)) {
    subtree_ready = true;
    return id;  // parent before children
  }
  // Weighted round-robin among children whose subtrees have ready streams.
  // Two passes: find eligible children, then serve the highest credit.
  // The scratch vectors are members so a warm pick allocates nothing; this
  // level is done with them before it recurses.
  std::vector<std::uint32_t>& eligible = eligible_scratch_;
  eligible.clear();
  for (std::uint32_t child : node.children) {
    // Probe the subtree for readiness without consuming credits: a cheap
    // DFS that only evaluates `ready`.
    bool any = false;
    std::vector<std::uint32_t>& stack = probe_scratch_;
    stack.assign(1, child);
    while (!stack.empty() && !any) {
      const std::uint32_t cur = stack.back();
      stack.pop_back();
      if (ready(cur)) {
        any = true;
        break;
      }
      const Node& cn = nodes_[cur];
      stack.insert(stack.end(), cn.children.begin(), cn.children.end());
    }
    if (any) eligible.push_back(child);
  }
  if (eligible.empty()) {
    subtree_ready = false;
    return 0;
  }
  subtree_ready = true;
  // Credit accumulation proportional to weight; serve the largest credit.
  double total_weight = 0;
  for (std::uint32_t child : eligible)
    total_weight += nodes_[child].weight;
  std::uint32_t best = eligible.front();
  for (std::uint32_t child : eligible) {
    Node& cn = nodes_[child];
    cn.credit += static_cast<double>(cn.weight) / total_weight;
    if (cn.credit > nodes_[best].credit + 1e-12) best = child;
  }
  nodes_[best].credit -= 1.0;
  bool dummy = false;
  const std::uint32_t picked = pick_subtree(best, ready, dummy);
  assert(picked != 0);
  return picked;
}

std::uint32_t PriorityTree::pick(
    const std::function<bool(std::uint32_t)>& ready) {
  bool dummy = false;
  return pick_subtree(0, ready, dummy);
}

}  // namespace h2push::h2
