// Simulator, link, and TCP model tests: event ordering, cancellation,
// serialization/queueing arithmetic, handshake timing, slow start, loss
// recovery (content-verified), and determinism.
#include <gtest/gtest.h>

#include "fuzz/invariants.h"
#include "sim/conditions.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tcp.h"
#include "trace/trace.h"
#include "util/piece.h"

// SteadyStateSchedulesWithoutHeapAllocation asserts the schedule/fire hot
// path stops touching the heap once the event pool and queue are warm, and
// SteadyTransferDoesNotAllocatePerSegment that a warm TCP transfer does not
// allocate per segment.
#include "counting_allocator.h"

namespace h2push::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(from_ms(30), [&] { order.push_back(3); });
  sim.schedule_at(from_ms(10), [&] { order.push_back(1); });
  sim.schedule_at(from_ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), from_ms(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(from_ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_in(from_ms(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator sim;
  sim.cancel(kInvalidEvent);
  sim.cancel(123456);
  EXPECT_FALSE(sim.step());
}

// Regression: cancelling an id that never existed, an id that already
// fired, or the same id twice used to grow the cancelled set without a
// matching queue entry, corrupting pending_events() for the rest of the
// run (it could even underflow below the number of live events).
TEST(Simulator, CancelBookkeepingStaysExact) {
  Simulator sim;
  sim.cancel(987654);  // never scheduled
  EXPECT_EQ(sim.pending_events(), 0u);

  const auto a = sim.schedule_in(from_ms(1), [] {});
  const auto b = sim.schedule_in(from_ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);

  sim.cancel(a);
  sim.cancel(a);  // double cancel: second is a no-op
  EXPECT_EQ(sim.pending_events(), 1u);

  EXPECT_TRUE(sim.step());  // fires b (a was cancelled)
  EXPECT_EQ(sim.now(), from_ms(2));
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.cancel(b);  // cancel after fire: must not count
  EXPECT_EQ(sim.pending_events(), 0u);

  const auto c = sim.schedule_in(from_ms(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(c);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsScheduledInPastClampToNow) {
  Simulator sim;
  sim.schedule_at(from_ms(10), [&] {
    bool ran = false;
    sim.schedule_at(from_ms(5), [&] { ran = true; });
    EXPECT_FALSE(ran);
  });
  sim.run();
  EXPECT_EQ(sim.now(), from_ms(10));
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(from_ms(10), [&] { ++count; });
  sim.schedule_at(from_ms(100), [&] { ++count; });
  sim.run(from_ms(50));
  EXPECT_EQ(count, 1);

  // A cancelled entry due before the deadline must not let the next entry,
  // which is past it, fire in its place.
  const auto cancelled = sim.schedule_at(from_ms(60), [&] { ++count; });
  sim.cancel(cancelled);
  sim.run(from_ms(80));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), from_ms(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

// ------------------------------------------------------------------ rearm

TEST(Simulator, RearmTakesTheNextPlaceInTheOrder) {
  Simulator sim;
  std::vector<char> order;
  const EventId a =
      sim.schedule_at(from_ms(10), [&] { order.push_back('a'); });
  sim.schedule_at(from_ms(20), [&] { order.push_back('b'); });
  EXPECT_TRUE(sim.rearm(a, from_ms(20)));  // after b, which came first
  sim.schedule_at(from_ms(20), [&] { order.push_back('c'); });
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a', 'c'}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

// A timer moved later keeps its queued entry; when that entry pops it is
// re-pushed, which is not an event: now(), executed_events() and the fire
// hook only see the events that fire.
TEST(Simulator, RearmLaterIsInvisibleUntilTheTimerFires) {
  Simulator sim;
  std::vector<Time> hook_times;
  sim.set_fire_hook([&](Time t) { hook_times.push_back(t); });
  int fired = 0;
  const EventId timer = sim.schedule_at(from_ms(10), [&] { ++fired; });
  sim.schedule_at(from_ms(20), [] {});
  EXPECT_TRUE(sim.rearm(timer, from_ms(30)));
  EXPECT_TRUE(sim.step());  // the entry at 10 ms moves; the 20 ms event fires
  EXPECT_EQ(sim.now(), from_ms(20));
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.rearm(timer, from_ms(25)));  // earlier again
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), from_ms(25));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.step());  // the superseded 30 ms entry is discarded
  EXPECT_EQ(sim.now(), from_ms(25));
  EXPECT_EQ(hook_times, (std::vector<Time>{from_ms(20), from_ms(25)}));
}

TEST(Simulator, RearmRejectsIdsThatAreNotPending) {
  Simulator sim;
  EXPECT_FALSE(sim.rearm(kInvalidEvent, from_ms(1)));
  EXPECT_FALSE(sim.rearm(123456, from_ms(1)));
  const EventId fired = sim.schedule_at(from_ms(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.rearm(fired, from_ms(5)));
  const EventId cancelled = sim.schedule_at(from_ms(2), [] {});
  sim.cancel(cancelled);
  EXPECT_FALSE(sim.rearm(cancelled, from_ms(5)));
  bool own = true;
  EventId self = kInvalidEvent;
  self = sim.schedule_at(from_ms(3),
                         [&] { own = sim.rearm(self, from_ms(9)); });
  sim.run();
  EXPECT_FALSE(own);  // firing: rearm from its own callback is a no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

// Labelled timers on one simulator. A timer is moved either with rearm()
// (the TCP retransmission-timer pattern) or with cancel() followed by
// schedule_at(); firing timers log their label and may move or cancel
// other timers, or themselves, from inside their callback.
class TimerBench {
 public:
  static constexpr std::size_t kLabels = 12;

  TimerBench(bool use_rearm, std::uint64_t seed)
      : use_rearm_(use_rearm), rng_(seed) {}

  void arm(std::size_t label, Time at) {
    EventId& id = ids_[label];
    if (use_rearm_) {
      if (sim.rearm(id, at)) return;
    } else {
      sim.cancel(id);
    }
    id = sim.schedule_at(at, [this, label] { fire(label); });
  }
  void cancel(std::size_t label) { sim.cancel(ids_[label]); }

  Simulator sim;
  std::vector<std::pair<std::size_t, Time>> fired;

 private:
  void fire(std::size_t label) {
    fired.emplace_back(label, sim.now());
    if (rng_.bernoulli(0.4)) {
      arm(rng_.index(kLabels), sim.now() + rng_.uniform_int(0, 40));
    }
    if (rng_.bernoulli(0.1)) cancel(rng_.index(kLabels));
  }

  bool use_rearm_;
  util::Rng rng_;
  EventId ids_[kLabels] = {};
};

TEST(Simulator, RearmMatchesCancelAndSchedule) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TimerBench moved(/*use_rearm=*/true, seed);
    TimerBench replaced(/*use_rearm=*/false, seed);
    util::Rng plan(seed * 7919);
    const auto same = [&] {
      return moved.fired == replaced.fired &&
             moved.sim.pending_events() == replaced.sim.pending_events() &&
             moved.sim.now() == replaced.sim.now() &&
             moved.sim.executed_events() == replaced.sim.executed_events();
    };
    for (int op = 0; op < 400; ++op) {
      const double pick = plan.next_double();
      if (pick < 0.45) {
        const std::size_t label = plan.index(TimerBench::kLabels);
        const Time at = moved.sim.now() + plan.uniform_int(0, 60);
        moved.arm(label, at);
        replaced.arm(label, at);
      } else if (pick < 0.5) {
        const std::size_t label = plan.index(TimerBench::kLabels);
        moved.cancel(label);
        replaced.cancel(label);
      } else if (pick < 0.9) {
        EXPECT_EQ(moved.sim.step(), replaced.sim.step());
      } else {
        const Time deadline = moved.sim.now() + plan.uniform_int(0, 30);
        moved.sim.run(deadline);
        replaced.sim.run(deadline);
      }
      ASSERT_TRUE(same()) << "seed " << seed << " op " << op;
    }
    while (moved.sim.step()) {
      ASSERT_TRUE(replaced.sim.step()) << "seed " << seed;
      ASSERT_TRUE(same()) << "seed " << seed;
    }
    EXPECT_FALSE(replaced.sim.step());
    ASSERT_TRUE(same()) << "seed " << seed;
    EXPECT_FALSE(moved.fired.empty());
    // Moving a timer later costs no queue entry until its old entry pops.
    EXPECT_LE(moved.sim.queue_pushes(), replaced.sim.queue_pushes());
  }
}

// -------------------------------------------------------------- event pool

TEST(Simulator, PoolRecyclesNodesAcrossRuns) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(from_ms(i), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 50);
  const std::size_t pooled = sim.pooled_nodes();
  EXPECT_GE(pooled, 50u);  // every fired node went back on the free list

  // A second burst draws from the pool instead of growing it.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(from_ms(100 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.pooled_nodes(), pooled - 50);
  sim.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.pooled_nodes(), pooled);
}

TEST(Simulator, CancelAfterPoolRecycleIsStaleNoop) {
  Simulator sim;
  const EventId first = sim.schedule_at(from_ms(1), [] {});
  sim.run();  // fires and recycles the node (generation bump)

  // The free list is LIFO, so the next event reuses the same slot; its id
  // must still differ and the stale id must not cancel the new occupant.
  bool fired = false;
  const EventId second = sim.schedule_at(from_ms(2), [&] { fired = true; });
  EXPECT_NE(first, second);
  sim.cancel(first);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, PendingEventsStaysExactUnderCancellation) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(from_ms(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.cancel(ids[3]);
  sim.cancel(ids[7]);
  EXPECT_EQ(sim.pending_events(), 8u);
  sim.cancel(ids[3]);  // double cancel: no double counting
  EXPECT_EQ(sim.pending_events(), 8u);
  while (sim.step()) {
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 8u);
}

TEST(Simulator, SteadyStateSchedulesWithoutHeapAllocation) {
  Simulator sim;
  std::uint64_t fired = 0;
  // Warm up: carve the pool blocks and let the priority queue's vector
  // reach its working capacity.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(from_ms(1), [&] { ++fired; });
    }
    sim.run();
  }

  const std::size_t before = test_allocation_count();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_in(from_ms(1), [&] { ++fired; });
    }
    sim.run();
  }
  EXPECT_EQ(test_allocation_count(), before)
      << "schedule_at/step heap-allocated in steady state";
  EXPECT_EQ(fired, 19u * 64u);
}

// -------------------------------------------------------------------- link

TEST(Link, SerializationDelayMatchesRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.prop_delay = from_ms(10);
  Link link(sim, cfg, util::Rng(1));
  Time delivered_at = -1;
  link.transmit(1000, 0, [&] { delivered_at = sim.now(); });
  sim.run();
  // 1000 bytes at 1 B/us = 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at, from_ms(11));
}

TEST(Link, BackToBackPacketsQueue) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  Link link(sim, cfg, util::Rng(1));
  std::vector<Time> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.transmit(1000, 0, [&] { deliveries.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], from_ms(1));
  EXPECT_EQ(deliveries[1], from_ms(2));
  EXPECT_EQ(deliveries[2], from_ms(3));
}

TEST(Link, DropsWhenQueueFull) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.queue_capacity = 2500;
  Link link(sim, cfg, util::Rng(1));
  int delivered = 0;
  EXPECT_TRUE(link.transmit(1500, 0, [&] { ++delivered; }));
  EXPECT_TRUE(link.transmit(1000, 0, [&] { ++delivered; }));
  EXPECT_FALSE(link.transmit(1500, 0, [&] { ++delivered; }));  // over cap
  EXPECT_EQ(link.dropped_packets(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.queued_bytes(), 0u);
  EXPECT_EQ(link.accepted_bytes(), 2500u);
  EXPECT_EQ(link.delivered_bytes(), 2500u);
  EXPECT_EQ(link.dropped_bytes(), 1500u);
  if (const auto v = fuzz::check_link_conservation(link)) FAIL() << *v;
}

TEST(Link, ExtraDelayAddsToPropagation) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = from_ms(2);
  Link link(sim, cfg, util::Rng(1));
  Time at = 0;
  Route route{&link, from_ms(23)};
  route.transmit(1000, [&] { at = sim.now(); });
  sim.run();
  EXPECT_EQ(at, from_ms(1 + 2 + 23));
}

// Departures have no events of their own; each settles at the place in
// the order its event would have had: after every event scheduled before
// the packet was enqueued. An enqueue at exactly the departure time sees
// the earlier packet still queued from an event scheduled before it, and
// gone from one scheduled after it.
TEST(Link, DepartureSettlesAtItsPlaceInTheEventOrder) {
  for (const bool probe_first : {true, false}) {
    SCOPED_TRACE(probe_first ? "probe scheduled before the departure"
                             : "probe scheduled after the departure");
    Simulator sim;
    LinkConfig cfg;
    cfg.rate_bps = 8e6;  // 1 byte/us
    cfg.prop_delay = from_ms(10);  // no arrival at 1 ms to settle it first
    cfg.queue_packets = 1;
    Link link(sim, cfg, util::Rng(1));
    bool accepted = false;
    std::size_t packets_after = 0;
    std::size_t bytes_after = 0;
    const auto probe = [&] {
      accepted = link.transmit(500, 0, [] {});
      packets_after = link.queued_packets();
      bytes_after = link.queued_bytes();
    };
    if (probe_first) sim.schedule_at(from_ms(1), probe);
    ASSERT_TRUE(link.transmit(1000, 0, [] {}));  // departs at 1 ms
    if (!probe_first) sim.schedule_at(from_ms(1), probe);
    sim.run();
    if (probe_first) {
      EXPECT_FALSE(accepted);  // queue_packets = 1 and it is still queued
      EXPECT_EQ(packets_after, 1u);
      EXPECT_EQ(bytes_after, 1000u);
      EXPECT_EQ(link.dropped_packets(), 1u);
    } else {
      EXPECT_TRUE(accepted);
      EXPECT_EQ(packets_after, 1u);
      EXPECT_EQ(bytes_after, 500u);
      EXPECT_EQ(link.dropped_packets(), 0u);
    }
    if (const auto v = fuzz::check_link_conservation(link)) FAIL() << *v;
  }
}

TEST(Link, TracedDeparturesKeepTheirTimes) {
  Simulator sim;
  trace::TraceRecorder recorder;
  recorder.set_clock([&sim] { return sim.now(); });
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = from_ms(10);
  Link link(sim, cfg, util::Rng(1));
  link.set_trace(&recorder, 1);
  link.transmit(1000, 0, [] {});
  link.transmit(1000, 0, [] {});
  sim.run();
  std::vector<std::pair<Time, double>> depth;
  for (const auto& event : recorder.events()) {
    if (event.name == "queue_packets") {
      depth.emplace_back(event.ts, event.value);
    }
  }
  EXPECT_EQ(depth, (std::vector<std::pair<Time, double>>{
                       {0, 1}, {0, 2}, {from_ms(1), 1}, {from_ms(2), 0}}));
}

// --------------------------------------------------------------------- tcp

struct TcpHarness {
  // How send_pattern() hands the pattern to the connection: as bytes it
  // copies, or as an HTTP/2 server writes a response body by reference.
  enum class Send { kCopied, kPieces };
  static constexpr Send kBothSends[] = {Send::kCopied, Send::kPieces};

  Simulator sim;
  // Every TCP test also runs under the mini-fuzz invariant checker: time
  // monotonic, pool accounting exact (fuzz/invariants.h).
  fuzz::SimChecker checker{sim};
  Link down, up;
  std::unique_ptr<TcpConnection> tcp;
  std::size_t client_received = 0;
  std::size_t server_received = 0;
  std::size_t pattern_sent = 0;
  Send send = Send::kCopied;
  // Deliveries of more than one segment (an in-order repair releasing the
  // segments queued behind a hole) that span several send-buffer pieces,
  // and, while every byte is copied, that straddle a send-buffer chunk.
  std::size_t repairs_across_pieces = 0;
  std::size_t repairs_across_chunks = 0;
  // Client-side delivered pieces that alias a body sent by reference.
  std::size_t shared_pieces = 0;
  bool mismatch = false;
  Time connected_at = -1;
  Time accepted_at = -1;

  static LinkConfig link_config(double rate, std::size_t queue_bytes,
                                double loss) {
    LinkConfig cfg;
    cfg.rate_bps = rate;
    cfg.prop_delay = from_ms(2);
    cfg.queue_capacity = queue_bytes;
    cfg.random_loss = loss;
    return cfg;
  }

  explicit TcpHarness(double loss = 0.0, std::uint64_t seed = 1,
                      std::size_t queue = 1000 * 1500)
      : down(sim, link_config(16e6, queue, loss), util::Rng(seed)),
        up(sim, link_config(1e6, queue, loss), util::Rng(seed ^ 1)) {
    TcpConnection::Callbacks cb;
    cb.on_connected = [this] { connected_at = sim.now(); };
    cb.on_accepted = [this] { accepted_at = sim.now(); };
    cb.on_deliver = [this](TcpConnection::Side side,
                           std::span<const util::Piece> pieces) {
      std::size_t bytes = 0;
      for (const util::Piece& piece : pieces) bytes += piece.bytes.size();
      if (side != TcpConnection::Side::kClient) {
        server_received += bytes;
        return;
      }
      if (bytes > kMss && pieces.size() > 1) {
        ++repairs_across_pieces;
      }
      if (send == Send::kCopied && bytes > 0) {
        // Copied bytes fill fixed chunks from sequence 0, and consecutive
        // copies into one chunk form one piece: a delivery is one piece
        // per chunk it touches.
        constexpr std::size_t kChunk = TcpConnection::kSendChunkBytes;
        const std::size_t chunks =
            (client_received + bytes - 1) / kChunk - client_received / kChunk +
            1;
        if (pieces.size() != chunks) mismatch = true;
        if (bytes > kMss && chunks > 1) ++repairs_across_chunks;
      }
      for (const util::Piece& piece : pieces) {
        if (piece.owner != nullptr) {
          // A shared piece is a slice of the body it was sent in.
          ++shared_pieces;
          const std::string& body = **piece.owner;
          const auto offset = static_cast<std::size_t>(
              piece.bytes.data() -
              reinterpret_cast<const std::uint8_t*>(body.data()));
          if (offset + piece.bytes.size() > body.size()) mismatch = true;
        }
        for (const auto byte : piece.bytes) {
          if (byte != static_cast<std::uint8_t>(client_received % 251)) {
            mismatch = true;
          }
          ++client_received;
        }
      }
    };
    tcp = std::make_unique<TcpConnection>(
        sim, TcpConfig{}, Route{&up, from_ms(23)}, Route{&down, from_ms(23)},
        std::move(cb));
  }

  /// The next `total` bytes of the i % 251 pattern as an HTTP/2 server
  /// sends them: each 9-byte frame header copied, each payload of up to
  /// 16 KiB a slice of one shared body. `copies` keeps the copied bytes.
  std::vector<util::Piece> pattern_pieces(std::size_t total,
                                          util::SharedBytes& body,
                                          std::vector<std::uint8_t>& copies) {
    std::string bytes(total, '\0');
    for (std::size_t i = 0; i < total; ++i) {
      bytes[i] = static_cast<char>((pattern_sent + i) % 251);
    }
    pattern_sent += total;
    body = std::make_shared<const std::string>(std::move(bytes));
    const auto all = util::bytes_of(*body);
    copies.assign(all.begin(), all.end());
    std::vector<util::Piece> pieces;
    for (std::size_t pos = 0; pos < total;) {
      const std::size_t header = std::min<std::size_t>(9, total - pos);
      pieces.push_back({std::span(copies).subspan(pos, header)});
      pos += header;
      const std::size_t payload = std::min<std::size_t>(16384, total - pos);
      if (payload > 0) pieces.push_back({all.subspan(pos, payload), &body});
      pos += payload;
    }
    return pieces;
  }

  /// Write `pieces` from the server through TcpConnection::write, as an
  /// HTTP/2 server's produce() does: a piece with an owner by reference,
  /// any other copied.
  static void write_pieces(TcpConnection& conn,
                           std::span<const util::Piece> pieces) {
    conn.write(TcpConnection::Side::kServer, [pieces](util::PieceSink& out) {
      for (const util::Piece& piece : pieces) {
        if (piece.owner != nullptr) {
          out.write_shared(*piece.owner, piece.bytes);
        } else {
          out.write(piece.bytes);
        }
      }
    });
  }

  /// Send the next `total` bytes of the pattern: copied, or as
  /// pattern_pieces() when `send` is kPieces.
  void send_pattern(std::size_t total) {
    util::SharedBytes body;
    std::vector<std::uint8_t> copies;
    const auto pieces = pattern_pieces(total, body, copies);
    if (send == Send::kPieces) {
      write_pieces(*tcp, pieces);
    } else {
      tcp->send(TcpConnection::Side::kServer, copies);
    }
  }
};

TEST(Tcp, HandshakeTakesTcpPlusTlsRoundTrips) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  // 3 round trips (TCP + 2x TLS) at 50 ms RTT plus serialization.
  EXPECT_GT(h.connected_at, from_ms(145));
  EXPECT_LT(h.connected_at, from_ms(185));
  // Server accepts half an RTT before the client connects.
  EXPECT_LT(h.accepted_at, h.connected_at);
}

TEST(Tcp, DeliversOrderedContent) {
  for (const auto send : TcpHarness::kBothSends) {
    SCOPED_TRACE(send == TcpHarness::Send::kPieces ? "pieces" : "copied");
    TcpHarness h;
    h.send = send;
    h.tcp->connect();
    h.sim.run();
    h.send_pattern(300000);
    h.sim.run();
    EXPECT_EQ(h.client_received, 300000u);
    EXPECT_FALSE(h.mismatch);
    EXPECT_EQ(h.shared_pieces > 0, send == TcpHarness::Send::kPieces);
    EXPECT_EQ(h.tcp->retransmissions(), 0u);
    ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
    if (const auto leak = fuzz::check_drained(h.sim)) FAIL() << *leak;
    if (const auto v = fuzz::check_link_conservation(h.down)) FAIL() << *v;
    if (const auto v = fuzz::check_link_conservation(h.up)) FAIL() << *v;
  }
}

TEST(Tcp, SlowStartLimitsFirstRoundTrip) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  h.send_pattern(100000);
  // After ~1 RTT only about IW10 = 14.6 KB can have arrived.
  h.sim.run(h.connected_at + from_ms(60));
  EXPECT_LE(h.client_received, 16 * 1460u);
  EXPECT_GT(h.client_received, 0u);
  h.sim.run();
  EXPECT_EQ(h.client_received, 100000u);
}

TEST(Tcp, ThroughputApproachesLinkRate) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  const Time start = h.sim.now();
  h.send_pattern(2'000'000);
  h.sim.run();
  const double seconds = static_cast<double>(h.sim.now() - start) /
                         static_cast<double>(kSecond);
  const double mbps = 2'000'000 * 8.0 / seconds / 1e6;
  EXPECT_GT(mbps, 10.0);  // 16 Mbit/s link, minus slow start and overhead
}

TEST(Tcp, SteadyTransferDoesNotAllocatePerSegment) {
  // Segments carry sequence ranges and the delivery closures live in pooled
  // event nodes, so once the buffers and the event pool are warm a bulk
  // transfer allocates only a handful of times, not per segment: neither
  // one sent as copied bytes nor one sent as pieces of a shared body.
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  constexpr std::size_t kBytes = 251 * 8000;  // ~2 MB, whole pattern cycles
  util::SharedBytes body;
  std::vector<std::uint8_t> copies;
  const auto pieces = h.pattern_pieces(kBytes, body, copies);
  // kBytes is a multiple of 251, so the pattern continues seamlessly.
  // Copied first: the harness checks copied deliveries against chunk
  // boundaries counted from sequence 0.
  for (const bool shared : {false, true}) {
    h.send = shared ? TcpHarness::Send::kPieces : TcpHarness::Send::kCopied;
    const auto send = [&] {
      if (shared) {
        TcpHarness::write_pieces(*h.tcp, pieces);
      } else {
        h.tcp->send(TcpConnection::Side::kServer, copies);
      }
    };
    send();  // warm-up
    h.sim.run();
    const std::uint64_t packets_before = h.down.delivered_packets();
    const std::size_t received_before = h.client_received;
    const std::size_t shared_before = h.shared_pieces;
    const std::size_t allocations_before = test_allocation_count();
    send();
    h.sim.run();
    const std::size_t allocations =
        test_allocation_count() - allocations_before;
    const std::uint64_t segments =
        h.down.delivered_packets() - packets_before;

    EXPECT_EQ(h.client_received - received_before, kBytes);
    EXPECT_FALSE(h.mismatch);
    EXPECT_EQ(h.shared_pieces > shared_before, shared);
    EXPECT_GE(segments, kBytes / 1460);
    EXPECT_LT(allocations, segments / 10)
        << allocations << " allocations for " << segments << " segments"
        << (shared ? " (shared)" : " (copied)");
  }
  ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
}

TEST(Tcp, RepairDeliveryAcrossSendBufferChunksKeepsBytes) {
  // Under loss, the retransmission that fills a hole delivers every
  // segment queued behind it at once: one list of the send-buffer pieces
  // it spans. Sent as copied bytes, such a delivery straddles two chunks
  // of the buffer's storage; sent as pieces, it mixes copied frame headers
  // with slices of shared bodies. The sender writes while earlier bytes are
  // still in flight, so pieces and chunks are released and recycled
  // mid-transfer.
  for (const auto send : TcpHarness::kBothSends) {
    SCOPED_TRACE(send == TcpHarness::Send::kPieces ? "pieces" : "copied");
    std::size_t repairs_across_pieces = 0;
    std::size_t repairs_across_chunks = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      TcpHarness h(/*loss=*/0.02, seed, /*queue=*/64 * 1024);
      h.send = send;
      h.tcp->connect();
      h.sim.run(from_seconds(60));
      ASSERT_GE(h.connected_at, 0) << "handshake never completed";
      for (int piece = 0; piece < 12; ++piece) {
        h.send_pattern(100'000);
        h.sim.run(h.sim.now() + from_ms(150));
      }
      h.sim.run(h.sim.now() + from_seconds(300));
      EXPECT_EQ(h.client_received, h.pattern_sent) << "seed " << seed;
      EXPECT_FALSE(h.mismatch) << "seed " << seed;
      EXPECT_GT(h.tcp->retransmissions(), 0u);
      EXPECT_EQ(h.shared_pieces > 0, send == TcpHarness::Send::kPieces);
      repairs_across_pieces += h.repairs_across_pieces;
      repairs_across_chunks += h.repairs_across_chunks;
    }
    EXPECT_GT(repairs_across_pieces, 0u);
    if (send == TcpHarness::Send::kCopied) {
      EXPECT_GT(repairs_across_chunks, 0u);
    }
  }
}

TEST(Tcp, AdjacentSharedSlicesOfOneBufferArriveAsOnePiece) {
  // A body written as consecutive slices (an HTTP/1.1 server drains its
  // body a write budget at a time) comes back as one piece in a delivery
  // covering them all. Slices with a gap between them, or of another
  // buffer with the same bytes, stay separate pieces.
  TcpHarness h;
  // What each delivered piece was (pieces are valid only in the callback).
  struct Seen {
    const std::uint8_t* data;
    std::size_t size;
    const std::string* owner;
  };
  std::vector<std::vector<Seen>> deliveries;
  TcpConnection::Callbacks cb;
  cb.on_deliver = [&](TcpConnection::Side side,
                      std::span<const util::Piece> pieces) {
    if (side != TcpConnection::Side::kClient) return;
    auto& seen = deliveries.emplace_back();
    for (const util::Piece& piece : pieces) {
      seen.push_back({piece.bytes.data(), piece.bytes.size(),
                      piece.owner ? piece.owner->get() : nullptr});
    }
  };
  TcpConnection tcp(h.sim, TcpConfig{}, Route{&h.up, from_ms(23)},
                    Route{&h.down, from_ms(23)}, std::move(cb));
  tcp.connect();
  h.sim.run();
  const util::SharedBytes body =
      std::make_shared<const std::string>(std::string(1200, 'b'));
  const util::SharedBytes twin = std::make_shared<const std::string>(*body);
  const auto bytes = util::bytes_of(*body);
  const auto write = [&](const auto& produce) {
    deliveries.clear();
    tcp.write(TcpConnection::Side::kServer, produce);
    h.sim.run();
    return deliveries;
  };

  const auto adjacent = write([&](util::PieceSink& out) {
    out.write_shared(body, bytes.first(300));
    out.write_shared(body, bytes.subspan(300, 500));
    out.write_shared(body, bytes.subspan(800));
  });
  ASSERT_EQ(adjacent.size(), 1u);
  ASSERT_EQ(adjacent[0].size(), 1u);
  EXPECT_EQ(adjacent[0][0].data, bytes.data());
  EXPECT_EQ(adjacent[0][0].size, bytes.size());
  EXPECT_EQ(adjacent[0][0].owner, body.get());

  const auto gap = write([&](util::PieceSink& out) {
    out.write_shared(body, bytes.first(300));
    out.write_shared(body, bytes.subspan(400, 300));
  });
  ASSERT_EQ(gap.size(), 1u);
  EXPECT_EQ(gap[0].size(), 2u);

  const auto other_owner = write([&](util::PieceSink& out) {
    out.write_shared(body, bytes.first(300));
    out.write_shared(twin, util::bytes_of(*twin).subspan(300, 300));
  });
  ASSERT_EQ(other_owner.size(), 1u);
  EXPECT_EQ(other_owner[0].size(), 2u);

  const auto copy_between = write([&](util::PieceSink& out) {
    out.write_shared(body, bytes.first(300));
    out.write(bytes.first(9));
    out.write_shared(body, bytes.subspan(300, 300));
  });
  ASSERT_EQ(copy_between.size(), 1u);
  EXPECT_EQ(copy_between[0].size(), 3u);
}

TEST(Tcp, OnReceiveFlattensEachDelivery) {
  // A receiver that sets on_receive rather than on_deliver gets each
  // delivery as one span, assembled when it spans several pieces.
  TcpHarness h(/*loss=*/0.02, /*seed=*/3, /*queue=*/64 * 1024);
  std::size_t received = 0;
  std::size_t deliveries = 0;
  bool mismatch = false;
  TcpConnection::Callbacks cb;
  cb.on_receive = [&](TcpConnection::Side side,
                      std::span<const std::uint8_t> data) {
    if (side != TcpConnection::Side::kClient) return;
    ++deliveries;
    for (const auto byte : data) {
      if (byte != static_cast<std::uint8_t>(received++ % 251)) mismatch = true;
    }
  };
  TcpConnection tcp(h.sim, TcpConfig{}, Route{&h.up, from_ms(23)},
                    Route{&h.down, from_ms(23)}, std::move(cb));
  tcp.connect();
  h.sim.run(from_seconds(60));
  util::SharedBytes body;
  std::vector<std::uint8_t> copies;
  TcpHarness::write_pieces(tcp, h.pattern_pieces(300'000, body, copies));
  h.sim.run(h.sim.now() + from_seconds(300));
  EXPECT_EQ(received, 300'000u);
  EXPECT_FALSE(mismatch);
  EXPECT_GT(tcp.retransmissions(), 0u);
  EXPECT_LT(deliveries, 300'000u / 1460 + 1);  // some carried a repair
}

class TcpLossRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpLossRecovery, RecoversContentUnderHeavyLoss) {
  for (const auto send : TcpHarness::kBothSends) {
    SCOPED_TRACE(send == TcpHarness::Send::kPieces ? "pieces" : "copied");
    TcpHarness h(/*loss=*/0.05, /*seed=*/GetParam(), /*queue=*/64 * 1024);
    h.send = send;
    h.tcp->connect();
    h.sim.run(from_seconds(60));
    ASSERT_GE(h.connected_at, 0) << "handshake never completed";
    h.send_pattern(200000);
    h.sim.run(from_seconds(120));
    EXPECT_EQ(h.client_received, 200000u);
    EXPECT_FALSE(h.mismatch);
    EXPECT_GT(h.tcp->retransmissions(), 0u);
    // Under loss, dropped packets must never enter the queue: conservation
    // still holds on the delivered side.
    ASSERT_FALSE(h.checker.violation().has_value()) << *h.checker.violation();
    if (const auto v = fuzz::check_link_conservation(h.down)) FAIL() << *v;
    if (const auto v = fuzz::check_link_conservation(h.up)) FAIL() << *v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpLossRecovery,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Tcp, UplinkIsSlower) {
  TcpHarness h;
  h.tcp->connect();
  h.sim.run();
  std::vector<std::uint8_t> upload(100000, 'u');
  const Time start = h.sim.now();
  h.tcp->send(TcpConnection::Side::kClient, upload);
  h.sim.run();
  const double seconds = static_cast<double>(h.sim.now() - start) /
                         static_cast<double>(kSecond);
  // 100 KB at 1 Mbit/s ≈ 0.8 s minimum.
  EXPECT_GT(seconds, 0.7);
  EXPECT_EQ(h.server_received, 100000u);
}

TEST(Tcp, WritableSignalFiresOnDrain) {
  TcpHarness h;
  int writable_signals = 0;
  // Rebuild with a writable callback.
  TcpConnection::Callbacks cb;
  cb.on_connected = [&h] { h.connected_at = h.sim.now(); };
  cb.on_receive = [](TcpConnection::Side, std::span<const std::uint8_t>) {};
  cb.on_writable = [&writable_signals](TcpConnection::Side side) {
    if (side == TcpConnection::Side::kServer) ++writable_signals;
  };
  TcpConnection tcp(h.sim, TcpConfig{}, Route{&h.up, from_ms(23)},
                    Route{&h.down, from_ms(23)}, std::move(cb));
  tcp.connect();
  h.sim.run();
  std::vector<std::uint8_t> big(100000, 'x');
  tcp.send(TcpConnection::Side::kServer, big);
  EXPECT_FALSE(tcp.writable(TcpConnection::Side::kServer));
  h.sim.run();
  EXPECT_TRUE(tcp.writable(TcpConnection::Side::kServer));
  EXPECT_GT(writable_signals, 0);
}

// ------------------------------------------------------------- conditions

TEST(Conditions, TestbedIsDeterministic) {
  const auto cond = NetworkConditions::testbed();
  util::Rng rng(5);
  const auto s1 = sample_conditions(cond, rng);
  const auto s2 = sample_conditions(cond, rng);
  EXPECT_EQ(s1.down_bps, s2.down_bps);
  EXPECT_EQ(s1.base_rtt, s2.base_rtt);
  EXPECT_EQ(s1.loss, 0.0);
  util::Rng rtt_rng(9);
  EXPECT_EQ(s1.origin_rtt(rtt_rng), from_ms(50));
}

TEST(Conditions, InternetVaries) {
  const auto cond = NetworkConditions::internet();
  util::Rng rng(5);
  const auto s1 = sample_conditions(cond, rng);
  const auto s2 = sample_conditions(cond, rng);
  EXPECT_NE(s1.down_bps, s2.down_bps);
  util::Rng rtt_rng(9);
  const auto r1 = s1.origin_rtt(rtt_rng);
  const auto r2 = s1.origin_rtt(rtt_rng);
  EXPECT_NE(r1, r2);
  EXPECT_GE(r1, from_ms(5));
}

}  // namespace
}  // namespace h2push::sim
