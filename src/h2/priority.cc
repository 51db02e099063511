#include "h2/priority.h"

#include <algorithm>
#include <cassert>

namespace h2push::h2 {

PriorityTree::PriorityTree() : root_(&nodes_[0]) {}  // stream 0 is the root

PriorityTree::Node* PriorityTree::find(std::uint32_t id) {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const PriorityTree::Node* PriorityTree::find(std::uint32_t id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

void PriorityTree::add_ready(Node* node, std::int64_t delta) {
  for (; node != nullptr; node = node->parent) {
    node->ready_count = static_cast<std::uint32_t>(node->ready_count + delta);
  }
}

void PriorityTree::link(Node* child, Node* parent) {
  child->parent = parent;
  parent->children.push_back(child);
  if (child->ready_count != 0) add_ready(parent, child->ready_count);
}

void PriorityTree::unlink(Node* child) {
  Node* parent = child->parent;
  parent->children.erase(
      std::remove(parent->children.begin(), parent->children.end(), child),
      parent->children.end());
  child->parent = nullptr;
  if (child->ready_count != 0) {
    add_ready(parent, -static_cast<std::int64_t>(child->ready_count));
  }
}

void PriorityTree::attach(Node* node, std::uint32_t parent, bool exclusive) {
  Node* p = find(parent);
  if (p == nullptr) {
    // Dependency on an unknown stream: create a default placeholder under
    // the root (RFC 7540 §5.3.1 allows idle-parent creation).
    p = &nodes_[parent];
    p->id = parent;
    link(p, root_);
  }
  if (exclusive) {
    // Adopt all of the parent's current children, with their ready counts.
    std::uint32_t moved = 0;
    for (Node* child : p->children) {
      child->parent = node;
      node->children.push_back(child);
      moved += child->ready_count;
    }
    p->children.clear();
    if (moved != 0) add_ready(p, -static_cast<std::int64_t>(moved));
    node->ready_count += moved;
  }
  link(node, p);
}

void PriorityTree::add(std::uint32_t id, const PrioritySpec& spec) {
  if (id == 0) return;
  if (contains(id)) {
    reprioritize(id, spec);
    return;
  }
  Node& n = nodes_[id];
  n.id = id;
  n.weight = spec.weight == 0 ? 16 : spec.weight;
  // Self-dependency is a protocol error upstream; treat as default parent
  // so the tree can never contain a cycle (§5.3.1).
  const std::uint32_t parent = spec.depends_on == id ? 0 : spec.depends_on;
  attach(&n, parent, spec.exclusive);
}

void PriorityTree::reprioritize(std::uint32_t id, const PrioritySpec& spec) {
  Node* n = find(id);
  if (n == nullptr) {
    add(id, spec);
    return;
  }
  if (id == 0 || spec.depends_on == id) return;  // self-dependency: ignore
  // §5.3.3: if the new parent is a descendant of `id`, first move that
  // descendant up to `id`'s old parent.
  if (is_ancestor(id, spec.depends_on)) {
    Node* old_parent = n->parent;
    Node* descendant = find(spec.depends_on);
    unlink(descendant);
    link(descendant, old_parent);
  }
  unlink(n);
  n->weight = spec.weight == 0 ? 16 : spec.weight;
  attach(n, spec.depends_on, spec.exclusive);
}

void PriorityTree::remove(std::uint32_t id) {
  Node* n = id == 0 ? nullptr : find(id);
  if (n == nullptr) return;
  Node* parent = n->parent;
  unlink(n);
  // Reparent children in place, preserving order.
  for (Node* child : n->children) link(child, parent);
  nodes_.erase(id);
}

void PriorityTree::set_ready(std::uint32_t id, bool ready) {
  Node* n = id == 0 ? nullptr : find(id);
  if (n == nullptr || n->ready == ready) return;
  n->ready = ready;
  add_ready(n, ready ? 1 : -1);
}

bool PriorityTree::is_ready(std::uint32_t id) const {
  const Node* n = find(id);
  return n != nullptr && n->ready;
}

std::uint32_t PriorityTree::parent_of(std::uint32_t id) const {
  const Node* n = find(id);
  return n == nullptr || n->parent == nullptr ? 0 : n->parent->id;
}

std::uint16_t PriorityTree::weight_of(std::uint32_t id) const {
  const Node* n = find(id);
  return n == nullptr ? 16 : n->weight;
}

double PriorityTree::credit_of(std::uint32_t id) const {
  const Node* n = find(id);
  return n == nullptr ? 0 : n->credit;
}

std::vector<std::uint32_t> PriorityTree::children_of(std::uint32_t id) const {
  std::vector<std::uint32_t> ids;
  if (const Node* n = find(id)) {
    for (const Node* child : n->children) ids.push_back(child->id);
  }
  return ids;
}

bool PriorityTree::is_ancestor(std::uint32_t ancestor,
                               std::uint32_t id) const {
  if (id == 0) return ancestor == 0;
  const Node* cur = find(id);
  if (cur == nullptr) return false;
  for (cur = cur->parent; cur != nullptr; cur = cur->parent) {
    if (cur->id == ancestor) return true;
  }
  return false;
}

std::uint32_t PriorityTree::pick() {
  Node* node = root_;
  if (node->ready_count == 0) return 0;
  while (node == root_ || !node->ready) {
    // Weighted round-robin among the children whose subtrees hold a ready
    // stream: credit accumulates in proportion to weight, and the largest
    // credit is served.
    double total_weight = 0;
    for (const Node* child : node->children) {
      if (child->ready_count != 0) total_weight += child->weight;
    }
    Node* best = nullptr;
    for (Node* child : node->children) {
      if (child->ready_count == 0) continue;
      child->credit += static_cast<double>(child->weight) / total_weight;
      if (best == nullptr || child->credit > best->credit + 1e-12) {
        best = child;
      }
    }
    assert(best != nullptr);
    best->credit -= 1.0;
    node = best;
  }
  return node->id;
}

std::optional<std::string> PriorityTree::check_ready_counts() const {
  for (const auto& [id, node] : nodes_) {
    std::uint64_t expected = node.ready ? 1 : 0;
    for (const Node* child : node.children) {
      if (child->parent != &node) {
        return "tree: child " + std::to_string(child->id) +
               " does not point back to " + std::to_string(id);
      }
      expected += child->ready_count;
    }
    if (node.ready_count != expected) {
      return "tree: ready count of " + std::to_string(id) + " is " +
             std::to_string(node.ready_count) + ", expected " +
             std::to_string(expected);
    }
  }
  if (root_->ready) return "tree: root marked ready";
  return std::nullopt;
}

}  // namespace h2push::h2
