#include "sim/link.h"

#include <algorithm>

#include "trace/trace.h"

namespace h2push::sim {

Link::Link(Simulator& sim, LinkConfig config, util::Rng loss_rng)
    : sim_(sim), config_(config), loss_rng_(loss_rng) {}

Time Link::enqueue(std::size_t bytes, Time extra_delay) {
  if (queued_bytes_ + bytes > config_.queue_capacity ||
      queued_packets_ >= config_.queue_packets) {
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
  ++queued_packets_;
  const double ser_seconds =
      static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  const Time ser = from_seconds(ser_seconds);
  const Time start = std::max(sim_.now(), busy_until_);
  const Time depart = start + ser;
  busy_until_ = depart;
  busy_time_ += ser;
  if (trace_) {
    trace_->counter(track_, "sim", "queue_bytes",
                    static_cast<double>(queued_bytes_));
    trace_->counter(track_, "sim", "queue_packets",
                    static_cast<double>(queued_packets_));
  }
  // Bytes leave the queue when serialization completes...
  sim_.schedule_at(depart, [this, bytes] {
    queued_bytes_ -= bytes;
    --queued_packets_;
    if (trace_) {
      trace_->counter(track_, "sim", "queue_bytes",
                      static_cast<double>(queued_bytes_));
      trace_->counter(track_, "sim", "queue_packets",
                      static_cast<double>(queued_packets_));
    }
  });
  // ...and arrive after propagation.
  return depart + config_.prop_delay + extra_delay;
}

void Link::note_delivered(std::size_t bytes) {
  ++delivered_;
  delivered_bytes_ += bytes;
  if (trace_) ++trace_->summary().packets_delivered;
}

}  // namespace h2push::sim
