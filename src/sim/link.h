// Links and routes.
//
// A Link models one direction of a bottleneck: fixed rate, propagation
// delay, and a droptail byte queue. All page-load connections share the two
// access-link directions (16 Mbit/s down, 1 Mbit/s up in the paper's DSL
// profile), which is what creates bandwidth contention between concurrent
// push streams (paper §5, w10). A Route is a Link plus an extra per-path
// propagation delay (server distance behind the access link).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::sim {

struct LinkConfig {
  double rate_bps = 16e6;            ///< serialization rate, bits/second
  Time prop_delay = 0;               ///< one-way propagation on this link
  /// Droptail buffer. tc's default pfifo qdisc limits the queue in
  /// *packets* (1000), so a flood of 40-byte ACKs cannot build seconds of
  /// queueing delay the way a byte-capped buffer would; the byte cap is a
  /// safety backstop.
  std::size_t queue_packets = 1000;
  std::size_t queue_capacity = 1000 * 1500;  ///< bytes backstop
  double random_loss = 0.0;          ///< iid loss probability (Internet mode)
};

class Link {
 public:
  Link(Simulator& sim, LinkConfig config, util::Rng loss_rng);

  /// Enqueue a packet of `bytes` (incl. headers). `on_delivered` fires after
  /// queueing + serialization + propagation (+ extra_delay). Returns false
  /// if the queue dropped the packet; a packet lost at random returns true
  /// and never fires. The delivery closure lives in the simulator's pooled
  /// event node, so a packet costs no heap allocation.
  ///
  /// The delivery waits in `lane`, which must carry only packets sent on
  /// this link with this same `extra_delay`: departures never go backwards
  /// (a packet starts when the link is free and no earlier than now), so
  /// such packets arrive in the order they were sent (Simulator::Lane).
  template <typename F>
  bool transmit(Simulator::Lane& lane, std::size_t bytes, Time extra_delay,
                F&& on_delivered) {
    const Time arrival = enqueue(bytes, extra_delay);
    if (arrival == kQueueFull) return false;
    if (arrival == kRandomLoss) return true;  // consumed by the network
    auto deliver = [this, bytes,
                    cb = std::forward<F>(on_delivered)]() mutable {
      settle();  // this packet's departure, at least, has passed
      note_delivered(bytes);
      cb();
    };
    static_assert(sizeof(deliver) <= detail::EventFn::kInlineSize,
                  "a packet's delivery closure must fit an event node");
    sim_.schedule_at(lane, arrival, std::move(deliver));
    return true;
  }

  std::size_t queued_bytes() const {
    settle();
    return queued_bytes_;
  }
  std::size_t queued_packets() const {
    settle();
    return departures_;
  }
  std::uint64_t delivered_packets() const noexcept { return delivered_; }
  std::uint64_t dropped_packets() const noexcept { return dropped_; }

  // Byte conservation (fuzz/invariants.h): every byte accepted onto the
  // link is eventually delivered; dropped bytes never enter the queue.
  // With the simulator drained: accepted == delivered and queued == 0.
  std::uint64_t accepted_bytes() const noexcept { return accepted_bytes_; }
  std::uint64_t delivered_bytes() const noexcept { return delivered_bytes_; }
  std::uint64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  /// Cumulative serialization time: (now - busy_time) is the link's idle
  /// time, the resource Server Push tries to fill (paper §4.3).
  Time busy_time() const noexcept { return busy_time_; }
  const LinkConfig& config() const noexcept { return config_; }
  void set_rate(double bps) noexcept { config_.rate_bps = bps; }
  void set_random_loss(double p) noexcept { config_.random_loss = p; }

  /// Attach a trace recorder (queue-depth counters, drop instants).
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    track_ = track;
  }

 private:
  static constexpr Time kQueueFull = -1;
  static constexpr Time kRandomLoss = -2;

  /// A queued packet's departure: when serialization completes, and the
  /// place in the event order a departure event scheduled at enqueue time
  /// would take.
  struct Departure {
    Time time;
    std::uint64_t seq;
    std::size_t bytes;
  };

  /// Queue accounting for one packet: its arrival time, or kQueueFull /
  /// kRandomLoss. Records the packet's departure from the queue; no event
  /// is scheduled for it.
  Time enqueue(std::size_t bytes, Time extra_delay);
  /// Take every departure the simulator has gone past off the queue, in
  /// order, as departure events would have (trace counters included,
  /// stamped with the departure time).
  void settle() const;
  void note_delivered(std::size_t bytes);

  Simulator& sim_;
  LinkConfig config_;
  util::Rng loss_rng_;
  Time busy_until_ = 0;
  Time busy_time_ = 0;
  // The queue, settled lazily: a FIFO ring of departures (times and seqs
  // both ascending) whose capacity is a power of two and only grows.
  mutable std::vector<Departure> ring_;
  mutable std::size_t head_ = 0;
  mutable std::size_t departures_ = 0;  // = queued packets
  mutable std::size_t queued_bytes_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_bytes_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t track_ = 0;
};

/// One direction of a path: the shared access link plus path-specific extra
/// propagation (distance to this origin's server). Its packets arrive in
/// the order they were sent, so one lane holds all of them.
struct Route {
  Link* link = nullptr;
  Time extra_prop = 0;

  template <typename F>
  bool transmit(Simulator::Lane& lane, std::size_t bytes,
                F&& on_delivered) const {
    return link->transmit(lane, bytes, extra_prop,
                          std::forward<F>(on_delivered));
  }
};

}  // namespace h2push::sim
