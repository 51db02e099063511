#include "sim/link.h"

#include <algorithm>

#include "trace/trace.h"

namespace h2push::sim {

Link::Link(Simulator& sim, LinkConfig config, util::Rng loss_rng)
    : sim_(sim), config_(config), loss_rng_(loss_rng) {}

Time Link::enqueue(std::size_t bytes, Time extra_delay) {
  settle();
  if (queued_bytes_ + bytes > config_.queue_capacity ||
      departures_ >= config_.queue_packets) {
    ++dropped_;
    dropped_bytes_ += bytes;
    if (trace_) {
      trace_->instant(track_, "sim", "drop.queue_full", {{"bytes", bytes}});
      ++trace_->summary().packets_dropped;
    }
    return kQueueFull;
  }
  if (config_.random_loss > 0 && loss_rng_.bernoulli(config_.random_loss)) {
    ++dropped_;
    dropped_bytes_ += bytes;
    if (trace_) {
      trace_->instant(track_, "sim", "drop.random_loss", {{"bytes", bytes}});
      ++trace_->summary().packets_dropped;
    }
    return kRandomLoss;  // consumed by the network, silently lost
  }
  queued_bytes_ += bytes;
  accepted_bytes_ += bytes;
  const double ser_seconds =
      static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  const Time ser = from_seconds(ser_seconds);
  const Time start = std::max(sim_.now(), busy_until_);
  const Time depart = start + ser;
  busy_until_ = depart;
  busy_time_ += ser;
  // Bytes leave the queue when serialization completes. The departure
  // takes the seq its own event would have had, so settle() retires it at
  // exactly that point in the order...
  if (departures_ == ring_.size()) {
    std::vector<Departure> grown(ring_.empty() ? 16 : 2 * ring_.size());
    for (std::size_t i = 0; i < departures_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + departures_) & (ring_.size() - 1)] =
      Departure{depart, sim_.reserve_seq(), bytes};
  ++departures_;
  if (trace_) {
    trace_->counter(track_, "sim", "queue_bytes",
                    static_cast<double>(queued_bytes_));
    trace_->counter(track_, "sim", "queue_packets",
                    static_cast<double>(departures_));
  }
  // ...and arrive after propagation.
  return depart + config_.prop_delay + extra_delay;
}

void Link::settle() const {
  while (departures_ > 0) {
    const Departure& d = ring_[head_];
    if (!sim_.has_passed(d.time, d.seq)) break;
    queued_bytes_ -= d.bytes;
    --departures_;
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (trace_) {
      trace_->counter_at(d.time, track_, "sim", "queue_bytes",
                         static_cast<double>(queued_bytes_));
      trace_->counter_at(d.time, track_, "sim", "queue_packets",
                         static_cast<double>(departures_));
    }
  }
}

void Link::note_delivered(std::size_t bytes) {
  ++delivered_;
  delivered_bytes_ += bytes;
  if (trace_) ++trace_->summary().packets_delivered;
}

}  // namespace h2push::sim
