// Seeded property tests for the cache-digest codec and the RFC 7540 §5.3
// priority tree.
//
// CacheDigest: encode/decode round-trip preserves the set, membership has
// no false negatives, and the sampled false-positive rate respects the
// 2^-p design bound. PriorityTree: arbitrary add/reprioritize/remove
// sequences (including exclusive insertion and §5.3.3 descendant moves)
// keep the tree a tree — no cycles, parent/child links consistent — and
// pick() terminates and only returns ready streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fuzz/random.h"
#include "fuzz_common.h"
#include "h2/cache_digest.h"
#include "h2/frame.h"
#include "h2/priority.h"

namespace h2push {
namespace {

using fuzz::Random;
using fuzz_test::iterations;
using fuzz_test::seed_msg;

std::vector<std::string> random_urls(Random& r, std::size_t min,
                                     std::size_t max) {
  std::set<std::string> urls;
  const std::size_t n = r.range(min, max);
  while (urls.size() < n) {
    urls.insert("https://" + r.token(3, 12) + ".example.com/" +
                r.token(1, 24));
  }
  return {urls.begin(), urls.end()};
}

TEST(PropertyCacheDigest, RoundTripPreservesMembership) {
  const std::size_t iters = iterations(400);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kPropertySeed + i;
    Random r(seed);
    const auto urls = random_urls(r, 1, 64);
    const auto p_bits = static_cast<unsigned>(r.range(4, 8));

    const auto digest = h2::CacheDigest::build(urls, p_bits);
    EXPECT_EQ(digest.p_bits(), p_bits) << seed_msg(seed);

    const auto wire = digest.encode();
    auto decoded = h2::CacheDigest::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error() << seed_msg(seed);
    EXPECT_EQ(decoded->entry_count(), digest.entry_count()) << seed_msg(seed);
    EXPECT_EQ(decoded->n_bits(), digest.n_bits()) << seed_msg(seed);
    EXPECT_EQ(decoded->p_bits(), digest.p_bits()) << seed_msg(seed);

    // The decoded digest must agree with the original on every query, and
    // neither may have a false negative.
    for (const auto& url : urls) {
      EXPECT_TRUE(digest.probably_contains(url))
          << "false negative for " << url << seed_msg(seed);
      EXPECT_TRUE(decoded->probably_contains(url))
          << "false negative after round-trip for " << url << seed_msg(seed);
    }
    // Encoding is canonical: re-encoding the decoded digest is byte-stable.
    EXPECT_EQ(decoded->encode(), wire) << seed_msg(seed);
  }
}

TEST(PropertyCacheDigest, FalsePositiveRateRespectsDesignBound) {
  // Aggregate across many digests so the binomial bound is tight. With
  // P = 2^-5 and 40k probes the expected FP count is 1250; observing more
  // than 2x that has probability < 1e-50.
  Random r(fuzz_test::kPropertySeed + (1u << 20));
  const unsigned p_bits = 5;
  std::size_t probes = 0;
  std::size_t false_positives = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    auto gen = r.fork("members");
    const auto urls = random_urls(gen, 32, 64);
    const auto digest = h2::CacheDigest::build(urls, p_bits);
    const std::set<std::string> members(urls.begin(), urls.end());

    auto probe = r.fork("probes");
    for (std::size_t j = 0; j < 1000; ++j) {
      const auto url =
          "https://other.example.org/" + probe.token(4, 28);
      if (members.count(url)) continue;
      ++probes;
      if (digest.probably_contains(url)) ++false_positives;
    }
    r.next();  // advance so the next round's forks differ
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_LT(rate, 2.0 / 32.0)
      << false_positives << " false positives in " << probes << " probes";
}

// --- PriorityTree properties ---------------------------------------------

// Walk the parent chain; the tree is healthy iff every chain reaches the
// root without revisiting a node.
void expect_tree_invariants(const h2::PriorityTree& tree,
                            const std::vector<std::uint32_t>& ids,
                            std::uint64_t seed) {
  for (const auto id : ids) {
    if (!tree.contains(id)) continue;
    std::set<std::uint32_t> visited{id};
    std::uint32_t cur = id;
    while (cur != 0) {
      const auto parent = tree.parent_of(cur);
      ASSERT_TRUE(visited.insert(parent).second)
          << "cycle through stream " << parent << seed_msg(seed);
      // Parent/child links must agree in both directions.
      const auto siblings = tree.children_of(parent);
      ASSERT_NE(std::find(siblings.begin(), siblings.end(), cur),
                siblings.end())
          << "stream " << cur << " missing from children of " << parent
          << seed_msg(seed);
      cur = parent;
    }
    const auto weight = tree.weight_of(id);
    EXPECT_GE(weight, 1u) << seed_msg(seed);
    EXPECT_LE(weight, 256u) << seed_msg(seed);
  }
}

TEST(PropertyPriorityTree, RandomReparentingKeepsTreeConsistent) {
  const std::size_t iters = iterations(300);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kPropertySeed + (2u << 20) + i;
    Random r(seed);
    h2::PriorityTree tree;
    std::vector<std::uint32_t> ids;

    const std::size_t ops = r.range(5, 60);
    for (std::size_t op = 0; op < ops; ++op) {
      const auto kind = r.range(0, 9);
      if (kind < 4 || ids.empty()) {
        // Add a fresh stream, sometimes depending on an existing one,
        // sometimes on an id the tree has never seen (idle placeholder).
        const auto id = static_cast<std::uint32_t>(2 * r.range(0, 500) + 1);
        if (tree.contains(id)) continue;
        h2::PrioritySpec spec;
        spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
        spec.exclusive = r.chance(0.3);
        if (!ids.empty() && r.chance(0.6)) {
          spec.depends_on = ids[r.index(ids.size())];
        } else if (r.chance(0.3)) {
          spec.depends_on = static_cast<std::uint32_t>(2 * r.range(0, 500) + 1);
        }
        if (spec.depends_on == id) spec.depends_on = 0;
        tree.add(id, spec);
        ids.push_back(id);
        if (spec.depends_on != 0 &&
            std::find(ids.begin(), ids.end(), spec.depends_on) == ids.end()) {
          ids.push_back(spec.depends_on);  // idle placeholder is now a node
        }
      } else if (kind < 8) {
        // Reprioritize an existing stream, deliberately including moves
        // under its own descendants (§5.3.3) and self-referencing parents
        // already filtered by Connection.
        const auto id = ids[r.index(ids.size())];
        h2::PrioritySpec spec;
        spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
        spec.exclusive = r.chance(0.3);
        spec.depends_on = r.chance(0.8) ? ids[r.index(ids.size())] : 0;
        if (spec.depends_on == id) spec.depends_on = 0;
        tree.reprioritize(id, spec);
      } else {
        const auto idx = r.index(ids.size());
        const auto id = ids[idx];
        tree.remove(id);
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      expect_tree_invariants(tree, ids, seed);
    }

    // pick() must terminate and return only ready streams, and repeated
    // picks over a fixed ready set must not starve: every ready stream
    // whose ancestors are all not-ready is eventually chosen.
    std::set<std::uint32_t> ready_set;
    for (const auto id : ids) {
      if (tree.contains(id) && r.chance(0.5)) ready_set.insert(id);
    }
    for (const auto id : ready_set) tree.set_ready(id, true);
    ASSERT_EQ(tree.check_ready_counts(), std::nullopt) << seed_msg(seed);
    std::set<std::uint32_t> picked;
    for (std::size_t j = 0; j < 4 * (ready_set.size() + 1); ++j) {
      const auto got = tree.pick();
      if (got == 0) break;
      ASSERT_TRUE(ready_set.count(got))
          << "pick returned non-ready stream " << got << seed_msg(seed);
      picked.insert(got);
    }
    if (!ready_set.empty()) {
      EXPECT_FALSE(picked.empty())
          << "pick found nothing despite ready streams" << seed_msg(seed);
    }
  }
}

// Exclusive insertion adopts all of the parent's children (RFC 7540
// §5.3.1, Figure 4) — deterministic spot check alongside the random walk.
TEST(PropertyPriorityTree, ExclusiveInsertionAdoptsSiblings) {
  h2::PriorityTree tree;
  tree.add(1, {0, 16, false});
  tree.add(3, {0, 16, false});
  tree.add(5, {0, 16, true});  // exclusive under root
  EXPECT_EQ(tree.parent_of(5), 0u);
  EXPECT_EQ(tree.parent_of(1), 5u);
  EXPECT_EQ(tree.parent_of(3), 5u);
  const auto kids = tree.children_of(0);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0], 5u);
}

}  // namespace
}  // namespace h2push
