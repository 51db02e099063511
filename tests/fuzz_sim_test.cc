// Seeded mini-fuzz for the discrete-event simulator and link layer.
//
// Random schedule/cancel/reschedule workloads (including from inside
// callbacks, the pattern TCP retransmission timers use) under the
// SimChecker fire hook: event times never go backwards, pool accounting
// stays exact, links conserve bytes.
#include <gtest/gtest.h>

#include <vector>

#include "fuzz/invariants.h"
#include "fuzz/random.h"
#include "fuzz_common.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace h2push {
namespace {

using fuzz::Random;
using fuzz_test::iterations;
using fuzz_test::seed_msg;

TEST(FuzzSim, RandomScheduleCancelWorkloads) {
  const std::size_t iters = iterations(1000);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + i;
    Random r(seed);
    sim::Simulator sim;
    fuzz::SimChecker checker(sim);

    std::vector<sim::EventId> ids;
    std::uint64_t fired = 0;
    auto plan = r.fork("plan");
    // Seed events; each may reschedule or cancel others when it fires —
    // the self-modifying pattern the lazy-cancellation design exists for.
    const std::size_t initial = plan.range(1, 40);
    for (std::size_t j = 0; j < initial; ++j) {
      const auto t = static_cast<sim::Time>(plan.range(0, 1000));
      // The callback's own draws come from a fork so adding events does
      // not perturb the planner stream.
      auto cb_rng = plan.fork("cb");
      ids.push_back(sim.schedule_at(
          t, [&sim, &ids, &fired, cb_rng]() mutable {
            ++fired;
            Random cr(cb_rng);
            if (cr.chance(0.3) && !ids.empty()) {
              sim.cancel(ids[cr.index(ids.size())]);
            }
            if (cr.chance(0.4)) {
              ids.push_back(sim.schedule_in(
                  static_cast<sim::Time>(cr.range(0, 50)), [&fired] {
                    ++fired;
                  }));
            }
          }));
    }
    // Cancel a random subset up front, including double-cancels and ids
    // that will have fired by then — all must be safe no-ops.
    auto chaos = r.fork("chaos");
    const std::size_t cancels = chaos.small_count(10);
    for (std::size_t j = 0; j < cancels; ++j) {
      sim.cancel(ids[chaos.index(ids.size())]);
    }
    sim.cancel(sim::kInvalidEvent);

    sim.run();

    ASSERT_FALSE(checker.violation().has_value())
        << *checker.violation() << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
    // The hook fires once per executed (non-cancelled) event; with an
    // aggressive-enough chaos pass everything can legitimately be cancelled.
    EXPECT_EQ(checker.events_checked(), fired) << seed_msg(seed);
  }
}

TEST(FuzzSim, LinkByteConservationUnderRandomLoads) {
  const std::size_t iters = iterations(500);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + (1u << 20) + i;
    Random r(seed);
    sim::Simulator sim;
    fuzz::SimChecker checker(sim);

    sim::LinkConfig config;
    config.rate_bps = 1e6 * static_cast<double>(r.range(1, 100));
    config.prop_delay = static_cast<sim::Time>(r.range(0, 10000));
    config.queue_packets = r.range(1, 64);
    config.queue_capacity = r.range(1500, 64 * 1500);
    sim::Link link(sim, config, util::Rng(r.next()));
    sim::Simulator::Lane lane;

    std::uint64_t delivered_cb = 0;
    std::uint64_t accepted = 0;
    auto load = r.fork("load");
    const std::size_t packets = load.range(1, 200);
    for (std::size_t j = 0; j < packets; ++j) {
      const auto bytes = static_cast<std::size_t>(load.range(40, 1500));
      if (link.transmit(lane, bytes, 0, [&delivered_cb] { ++delivered_cb; })) {
        accepted += bytes;
      }
      // Occasionally let the queue drain part-way so arrival patterns mix
      // bursts with steady state.
      if (load.chance(0.2)) {
        sim.run(sim.now() + static_cast<sim::Time>(load.range(0, 20000)));
      }
    }
    sim.run();

    ASSERT_FALSE(checker.violation().has_value())
        << *checker.violation() << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
    if (auto violation = fuzz::check_link_conservation(link)) {
      FAIL() << *violation << seed_msg(seed);
    }
    EXPECT_EQ(link.accepted_bytes(), accepted) << seed_msg(seed);
    EXPECT_EQ(link.delivered_packets(), delivered_cb) << seed_msg(seed);
  }
}

// Pooled-event generation safety: ids from long-recycled nodes must never
// cancel the node's current occupant.
TEST(FuzzSim, StaleEventIdsNeverCancelRecycledNodes) {
  const std::size_t iters = iterations(500);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kSimSeed + (2u << 20) + i;
    Random r(seed);
    sim::Simulator sim;

    // Round 1: run events to completion and keep their (now stale) ids.
    std::vector<sim::EventId> stale;
    const std::size_t n = r.range(1, 30);
    std::uint64_t fired = 0;
    for (std::size_t j = 0; j < n; ++j) {
      stale.push_back(sim.schedule_at(
          static_cast<sim::Time>(r.range(0, 100)), [&fired] { ++fired; }));
    }
    sim.run();
    ASSERT_EQ(fired, n) << seed_msg(seed);

    // Round 2: new events recycle the pool nodes; stale cancels must be
    // no-ops and every new event must still fire.
    std::uint64_t fired2 = 0;
    for (std::size_t j = 0; j < n; ++j) {
      sim.schedule_at(static_cast<sim::Time>(r.range(200, 300)),
                      [&fired2] { ++fired2; });
    }
    for (const auto id : stale) sim.cancel(id);
    sim.run();
    EXPECT_EQ(fired2, n) << seed_msg(seed);
    if (auto leak = fuzz::check_drained(sim)) {
      FAIL() << *leak << seed_msg(seed);
    }
  }
}

}  // namespace
}  // namespace h2push
