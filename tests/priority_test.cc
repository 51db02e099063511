// Priority tree tests: RFC 7540 §5.3 semantics (exclusive insertion,
// reprioritization incl. the descendant rule, removal) and the scheduling
// properties the paper's mechanisms rely on: parent-before-children (h2o)
// and weighted fairness among siblings.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "fuzz/random.h"
#include "fuzz_common.h"
#include "h2/priority.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

TEST(PriorityTree, DefaultInsertUnderRoot) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{});
  EXPECT_EQ(tree.parent_of(1), 0u);
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.children_of(0), (std::vector<std::uint32_t>{1, 3}));
}

TEST(PriorityTree, ExclusiveInsertAdoptsChildren) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{});
  tree.add(5, PrioritySpec{0, 16, true});  // exclusive under root
  EXPECT_EQ(tree.parent_of(5), 0u);
  EXPECT_EQ(tree.parent_of(1), 5u);
  EXPECT_EQ(tree.parent_of(3), 5u);
  EXPECT_EQ(tree.children_of(0), (std::vector<std::uint32_t>{5}));
}

TEST(PriorityTree, DependencyOnUnknownStreamCreatesPlaceholder) {
  PriorityTree tree;
  tree.add(7, PrioritySpec{99, 16, false});
  EXPECT_TRUE(tree.contains(99));
  EXPECT_EQ(tree.parent_of(7), 99u);
  EXPECT_EQ(tree.parent_of(99), 0u);
}

TEST(PriorityTree, ReprioritizeMovesSubtree) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{3, 16, false});
  tree.reprioritize(3, PrioritySpec{0, 32, false});
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.parent_of(5), 3u);  // subtree moves together
  EXPECT_EQ(tree.weight_of(3), 32);
}

TEST(PriorityTree, ReprioritizeUnderOwnDescendant) {
  // §5.3.3: moving a stream under its own descendant first moves the
  // descendant to the stream's old parent.
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{3, 16, false});
  tree.reprioritize(1, PrioritySpec{5, 16, false});
  EXPECT_EQ(tree.parent_of(5), 0u);  // old parent of 1
  EXPECT_EQ(tree.parent_of(1), 5u);
  EXPECT_EQ(tree.parent_of(3), 1u);
  EXPECT_FALSE(tree.is_ancestor(1, 5));
  EXPECT_TRUE(tree.is_ancestor(5, 1));
}

TEST(PriorityTree, RemoveReparentsChildren) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{1, 16, false});
  tree.remove(1);
  EXPECT_FALSE(tree.contains(1));
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_EQ(tree.parent_of(5), 0u);
}

TEST(PriorityTree, PickReturnsZeroWhenNothingReady) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  EXPECT_EQ(tree.pick(), 0u);
  tree.set_ready(1, true);
  tree.set_ready(1, false);
  EXPECT_EQ(tree.pick(), 0u);
}

TEST(PriorityTree, ParentServedBeforeChildren) {
  // h2o's rule that motivates interleaving push: as long as the parent has
  // data, its children (pushed streams) wait (paper Fig. 5a).
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(2, PrioritySpec{1, 16, false});  // pushed child
  tree.set_ready(1, true);
  tree.set_ready(2, true);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tree.pick(), 1u);
  // Parent exhausted → child gets picked.
  tree.set_ready(1, false);
  EXPECT_EQ(tree.pick(), 2u);
}

TEST(PriorityTree, WeightedFairnessAmongSiblings) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{0, 200, false});
  tree.add(3, PrioritySpec{0, 50, false});
  tree.set_ready(1, true);
  tree.set_ready(3, true);
  std::map<std::uint32_t, int> picks;
  for (int i = 0; i < 1000; ++i) picks[tree.pick()]++;
  // Shares proportional to weights (200:50 = 4:1), within 10 %.
  EXPECT_NEAR(static_cast<double>(picks[1]) / 1000.0, 0.8, 0.1);
  EXPECT_NEAR(static_cast<double>(picks[3]) / 1000.0, 0.2, 0.1);
}

TEST(PriorityTree, DeepChainServedTopDown) {
  // Chromium's exclusive chain: each stream depends on the previous one.
  PriorityTree tree;
  std::uint32_t prev = 0;
  for (std::uint32_t id = 1; id <= 19; id += 2) {
    tree.add(id, PrioritySpec{prev, 256, true});
    tree.set_ready(id, true);
    prev = id;
  }
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 10; ++i) {
    const auto id = tree.pick();
    order.push_back(id);
    tree.set_ready(id, false);  // done
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 5, 7, 9, 11, 13, 15,
                                               17, 19}));
}

TEST(PriorityTree, SkipsBlockedSubtreesEntirely) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{});
  tree.add(3, PrioritySpec{1, 16, false});
  tree.add(5, PrioritySpec{});  // sibling subtree of 1
  tree.set_ready(5, true);
  EXPECT_EQ(tree.pick(), 5u);
  EXPECT_EQ(tree.ready_count(), 1u);
}

TEST(PriorityTree, ZeroWeightTreatedAsDefault) {
  PriorityTree tree;
  tree.add(1, PrioritySpec{0, 0, false});
  EXPECT_EQ(tree.weight_of(1), 16);
}

TEST(PriorityTree, PickIsExhaustiveUnderChurn) {
  // Property: with random adds/removes, pick always returns a ready stream
  // when one exists.
  PriorityTree tree;
  std::set<std::uint32_t> live;
  std::uint64_t state = 42;
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t r = util::splitmix64(state);
    if (live.size() < 3 || (r % 3) != 0) {
      const std::uint32_t id = 1 + 2 * static_cast<std::uint32_t>(step);
      std::uint32_t parent = 0;
      if (!live.empty() && (r % 2) == 0) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(r % live.size()));
        parent = *it;
      }
      tree.add(id, PrioritySpec{parent, static_cast<std::uint16_t>(
                                            1 + r % 256),
                                (r & 4) != 0});
      tree.set_ready(id, true);
      live.insert(id);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(r % live.size()));
      tree.remove(*it);
      live.erase(it);
    }
    if (!live.empty()) {
      const auto picked = tree.pick();
      EXPECT_NE(picked, 0u);
      EXPECT_TRUE(live.count(picked) > 0);
    }
  }
}

// --- differential check against the depth-first pick ---------------------

// The tree as it was before nodes counted their ready streams: pick() walks
// every subtree depth-first and asks `ready` about each stream. Kept here
// only as the reference the counting tree must match pick for pick and
// credit for credit.
class ReferenceTree {
 public:
  ReferenceTree() { nodes_[0] = Node{}; }

  void add(std::uint32_t id, const PrioritySpec& spec) {
    if (nodes_.count(id) != 0) {
      reprioritize(id, spec);
      return;
    }
    nodes_[id] = Node{};
    nodes_[id].weight = spec.weight == 0 ? 16 : spec.weight;
    const std::uint32_t parent = spec.depends_on == id ? 0 : spec.depends_on;
    attach(id, parent, spec.exclusive);
  }

  void reprioritize(std::uint32_t id, const PrioritySpec& spec) {
    if (nodes_.count(id) == 0) {
      add(id, spec);
      return;
    }
    if (spec.depends_on == id) return;
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

  void remove(std::uint32_t id) {
    auto it = nodes_.find(id);
    if (it == nodes_.end() || id == 0) return;
    const std::uint32_t parent = it->second.parent;
    detach(id);
    for (std::uint32_t child : it->second.children) {
      nodes_[child].parent = parent;
      nodes_[parent].children.push_back(child);
    }
    nodes_.erase(it);
  }

  bool is_ancestor(std::uint32_t ancestor, std::uint32_t id) const {
    std::uint32_t cur = id;
    while (cur != 0) {
      auto it = nodes_.find(cur);
      if (it == nodes_.end()) return false;
      cur = it->second.parent;
      if (cur == ancestor) return true;
    }
    return ancestor == 0;
  }

  std::uint32_t pick(const std::function<bool(std::uint32_t)>& ready) {
    bool dummy = false;
    return pick_subtree(0, ready, dummy);
  }

  std::vector<std::uint32_t> ids() const {
    std::vector<std::uint32_t> out;
    for (const auto& [id, node] : nodes_) out.push_back(id);
    return out;
  }
  std::uint32_t parent_of(std::uint32_t id) const {
    return nodes_.at(id).parent;
  }
  std::uint16_t weight_of(std::uint32_t id) const {
    return nodes_.at(id).weight;
  }
  double credit_of(std::uint32_t id) const { return nodes_.at(id).credit; }
  const std::vector<std::uint32_t>& children_of(std::uint32_t id) const {
    return nodes_.at(id).children;
  }

 private:
  struct Node {
    std::uint32_t parent = 0;
    std::uint16_t weight = 16;
    std::vector<std::uint32_t> children;
    double credit = 0;
  };

  void attach(std::uint32_t id, std::uint32_t parent, bool exclusive) {
    if (nodes_.count(parent) == 0) {
      attach(parent, 0, false);
      nodes_[parent].weight = 16;
    }
    Node& p = nodes_[parent];
    Node& n = nodes_[id];
    if (exclusive) {
      for (std::uint32_t child : p.children) {
        nodes_[child].parent = id;
        n.children.push_back(child);
      }
      p.children.clear();
    }
    n.parent = parent;
    p.children.push_back(id);
  }

  void detach(std::uint32_t id) {
    Node& n = nodes_[id];
    Node& p = nodes_[n.parent];
    p.children.erase(std::remove(p.children.begin(), p.children.end(), id),
                     p.children.end());
  }

  std::uint32_t pick_subtree(std::uint32_t id,
                             const std::function<bool(std::uint32_t)>& ready,
                             bool& subtree_ready) {
    Node& node = nodes_[id];
    if (id != 0 && ready(id)) {
      subtree_ready = true;
      return id;
    }
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t child : node.children) {
      bool any = false;
      std::vector<std::uint32_t> stack{child};
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
    double total_weight = 0;
    for (std::uint32_t child : eligible) total_weight += nodes_[child].weight;
    std::uint32_t best = eligible.front();
    for (std::uint32_t child : eligible) {
      Node& cn = nodes_[child];
      cn.credit += static_cast<double>(cn.weight) / total_weight;
      if (cn.credit > nodes_[best].credit + 1e-12) best = child;
    }
    nodes_[best].credit -= 1.0;
    bool dummy = false;
    return pick_subtree(best, ready, dummy);
  }

  std::map<std::uint32_t, Node> nodes_;
};

// Random add / exclusive add / reprioritize (§5.3.3 moves under a
// descendant included) / remove / readiness flips, applied to both trees;
// every pick, and every node's parent, children, weight and credit, must
// match exactly.
TEST(PriorityTree, MatchesDepthFirstReferenceUnderRandomOps) {
  const std::size_t iters = fuzz_test::iterations(300);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kPropertySeed + (7u << 20) + i;
    fuzz::Random r(seed);
    PriorityTree tree;
    ReferenceTree ref;
    std::set<std::uint32_t> ready;
    const auto ref_ready = [&ready](std::uint32_t id) {
      return ready.count(id) != 0;
    };
    const auto random_id = [&r] {
      return static_cast<std::uint32_t>(r.range(1, 40));
    };
    const std::size_t ops = r.range(20, 200);
    for (std::size_t op = 0; op < ops; ++op) {
      const auto known = ref.ids();  // includes the root, 0
      const auto kind = r.range(0, 9);
      if (kind <= 2) {
        // Add (an existing id reprioritizes), sometimes exclusively, on a
        // known parent or on an id the tree has never seen.
        const auto id = random_id();
        PrioritySpec spec;
        spec.depends_on = r.chance(0.7) ? known[r.index(known.size())]
                                        : random_id();
        spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
        spec.exclusive = r.chance(0.3);
        tree.add(id, spec);
        ref.add(id, spec);
      } else if (kind <= 4 && known.size() > 1) {
        const auto id = known[1 + r.index(known.size() - 1)];
        PrioritySpec spec;
        spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
        spec.exclusive = r.chance(0.3);
        // Often a descendant of `id`, to exercise the §5.3.3 move.
        std::vector<std::uint32_t> below;
        for (const auto other : known) {
          if (other != id && ref.is_ancestor(id, other)) below.push_back(other);
        }
        spec.depends_on = !below.empty() && r.chance(0.5)
                              ? below[r.index(below.size())]
                              : known[r.index(known.size())];
        if (spec.depends_on == id) spec.depends_on = 0;
        tree.reprioritize(id, spec);
        ref.reprioritize(id, spec);
      } else if (kind == 5 && known.size() > 1) {
        const auto id = known[1 + r.index(known.size() - 1)];
        tree.remove(id);
        ref.remove(id);
        ready.erase(id);
      } else if (kind <= 7 && known.size() > 1) {
        const auto id = known[1 + r.index(known.size() - 1)];
        const bool flag = r.chance(0.6);
        tree.set_ready(id, flag);
        if (flag) {
          ready.insert(id);
        } else {
          ready.erase(id);
        }
      } else {
        for (std::size_t k = r.range(1, 8); k > 0; --k) {
          ASSERT_EQ(tree.pick(), ref.pick(ref_ready))
              << "op " << op << fuzz_test::seed_msg(seed);
        }
      }
      ASSERT_EQ(tree.check_ready_counts(), std::nullopt)
          << fuzz_test::seed_msg(seed);
      ASSERT_EQ(tree.node_count(), ref.ids().size())
          << fuzz_test::seed_msg(seed);
      for (const auto id : ref.ids()) {
        ASSERT_TRUE(tree.contains(id)) << id << fuzz_test::seed_msg(seed);
        ASSERT_EQ(tree.parent_of(id), ref.parent_of(id))
            << id << fuzz_test::seed_msg(seed);
        ASSERT_EQ(tree.children_of(id), ref.children_of(id))
            << id << fuzz_test::seed_msg(seed);
        ASSERT_EQ(tree.weight_of(id), ref.weight_of(id))
            << id << fuzz_test::seed_msg(seed);
        ASSERT_EQ(tree.credit_of(id), ref.credit_of(id))
            << id << fuzz_test::seed_msg(seed);
      }
    }
  }
}

}  // namespace
}  // namespace h2push::h2
