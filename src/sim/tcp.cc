#include "sim/tcp.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "trace/trace.h"

namespace h2push::sim {
namespace {

const char* side_name(TcpConnection::Side side) {
  return side == TcpConnection::Side::kClient ? "client" : "server";
}

}  // namespace

void TcpConnection::SendBuffer::write(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    if (chunks_.empty() || tail_used_ == kSendChunkBytes) {
      chunks_.push_back({spare_ ? std::move(spare_)
                                : std::make_unique_for_overwrite<
                                      std::uint8_t[]>(kSendChunkBytes)});
      tail_used_ = 0;
    }
    Chunk& chunk = chunks_.back();
    const std::size_t n = std::min(kSendChunkBytes - tail_used_, bytes.size());
    std::uint8_t* dst = chunk.bytes.get() + tail_used_;
    std::memcpy(dst, bytes.data(), n);
    // Bytes copied right behind the previous copy extend its piece.
    Entry* last = entries_.size() > head_ ? &entries_.back() : nullptr;
    if (last != nullptr && !last->owner && tail_used_ != 0 &&
        last->bytes.data() + last->bytes.size() == dst) {
      last->bytes = {last->bytes.data(), last->bytes.size() + n};
    } else {
      entries_.push_back({end_seq_, {dst, n}, nullptr});
    }
    tail_used_ += n;
    end_seq_ += n;
    chunk.end_seq = end_seq_;
    bytes = bytes.subspan(n);
  }
}

void TcpConnection::SendBuffer::write_shared(
    const util::SharedBytes& owner, std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  // A slice of the same buffer that starts where the previous piece ends
  // extends it, so a body written in several writes arrives as one piece.
  Entry* last = entries_.size() > head_ ? &entries_.back() : nullptr;
  if (last != nullptr && last->owner == owner &&
      last->bytes.data() + last->bytes.size() == bytes.data()) {
    last->bytes = {last->bytes.data(), last->bytes.size() + bytes.size()};
  } else {
    entries_.push_back({end_seq_, bytes, owner});
  }
  end_seq_ += bytes.size();
}

void TcpConnection::SendBuffer::slices(std::uint64_t from, std::uint64_t to,
                                       std::vector<util::Piece>& out) {
  assert(from <= to && to <= end_seq_);
  // The first piece holding `from`: pieces lie in sequence order, and each
  // delivery starts where the last one ended, at or after the cursor.
  assert(cursor_ >= head_ &&
         (cursor_ == entries_.size() || entries_[cursor_].seq <= from));
  while (cursor_ < entries_.size() &&
         entries_[cursor_].seq + entries_[cursor_].bytes.size() <= from) {
    ++cursor_;
  }
  for (std::size_t i = cursor_; from < to; ++i) {
    assert(i < entries_.size() && entries_[i].seq <= from);
    const Entry& e = entries_[i];
    const auto offset = static_cast<std::size_t>(from - e.seq);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(e.bytes.size() - offset, to - from));
    out.push_back({e.bytes.subspan(offset, n), e.owner ? &e.owner : nullptr});
    from += n;
    cursor_ = i;
  }
}

void TcpConnection::SendBuffer::release_below(std::uint64_t acked) {
  while (head_ < entries_.size() &&
         entries_[head_].seq + entries_[head_].bytes.size() <= acked) {
    entries_[head_].owner.reset();
    ++head_;
  }
  // Only delivered bytes are acknowledged, so the cursor stays at or past
  // the first piece held.
  cursor_ = std::max(cursor_, head_);
  if (head_ == entries_.size()) {
    entries_.clear();
    head_ = 0;
    cursor_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= entries_.size()) {
    // Never drained (a long bulk transfer): drop the released prefix once
    // it is most of the list.
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    cursor_ -= head_;
    head_ = 0;
  }
  // The last chunk takes the next copy until it is full.
  std::size_t released = 0;
  while (released + 1 < chunks_.size() &&
         chunks_[released].end_seq <= acked) {
    if (!spare_) spare_ = std::move(chunks_[released].bytes);
    ++released;
  }
  chunks_.erase(chunks_.begin(),
                chunks_.begin() + static_cast<std::ptrdiff_t>(released));
}

TcpConnection::TcpConnection(Simulator& sim, TcpConfig /*unused*/, Route up,
                             Route down, Callbacks callbacks)
    : sim_(sim), callbacks_(std::move(callbacks)) {
  up_path_.route = up;
  down_path_.route = down;
  up_.data_path = &up_path_;
  up_.ack_path = &down_path_;
  down_.data_path = &down_path_;
  down_.ack_path = &up_path_;
}

void TcpConnection::connect() {
  // Handshake packets travel the real routes so they experience queueing
  // and loss like everything else; a lost packet is retransmitted with
  // exponential backoff (RFC 6298-style initial timer).
  handshake_step_ = 0;
  handshake_total_steps_ = 2 + 2 * kTlsRoundTrips;
  handshake_rto_ = kRtoInitial;
  send_handshake_packet();
}

void TcpConnection::send_handshake_packet() {
  const int step = handshake_step_;
  if (step >= handshake_total_steps_) return;
  const bool upstream = (step % 2) == 0;  // client flights on even steps
  std::size_t bytes = kHeaderBytes;
  if (step >= 2) bytes += upstream ? kTlsClientFlight : kTlsServerFlight;
  Path& path = upstream ? up_path_ : down_path_;
  path.transmit(bytes, [this, step] { advance_handshake(step); });
  sim_.cancel(handshake_timer_);
  handshake_timer_ = sim_.schedule_in(handshake_rto_, [this, step] {
    if (handshake_step_ != step) return;  // progressed meanwhile
    handshake_rto_ = std::min<Time>(handshake_rto_ * 2, from_seconds(20));
    send_handshake_packet();
  });
}

void TcpConnection::advance_handshake(int arrived_step) {
  if (arrived_step != handshake_step_) return;  // stale duplicate
  handshake_step_ = arrived_step + 1;
  sim_.cancel(handshake_timer_);
  handshake_timer_ = kInvalidEvent;
  const bool was_last_up = handshake_total_steps_ > 2 &&
                           (arrived_step % 2) == 0 &&
                           arrived_step == handshake_total_steps_ - 2;
  const bool was_last_down = arrived_step == handshake_total_steps_ - 1;
  if (was_last_up && callbacks_.on_accepted) {
    // Server-side handshake completes when it receives the final client
    // flight; the server may start writing (e.g. its SETTINGS frame).
    if (trace_) trace_->instant(trace_track_, "tcp", "accepted");
    callbacks_.on_accepted();
  }
  if (was_last_down) {
    connected_ = true;
    connect_end_time_ = sim_.now();
    if (trace_) trace_->instant(trace_track_, "tcp", "connected");
    if (handshake_total_steps_ == 2 && callbacks_.on_accepted) {
      callbacks_.on_accepted();  // no TLS: accept == connect
    }
    if (callbacks_.on_connected) callbacks_.on_connected();
    return;
  }
  send_handshake_packet();
}

void TcpConnection::written_by(Side sender) {
  if (unsent_bytes(sender) >= kWriteWatermark) {
    half(sender).writable_low = false;
  }
  try_send(sender);
}

std::size_t TcpConnection::unsent_bytes(Side side) const noexcept {
  const Half& h = half(side);
  return static_cast<std::size_t>(h.buffer.end_seq() - h.snd_nxt);
}

bool TcpConnection::writable(Side side) const noexcept {
  return unsent_bytes(side) < kWriteWatermark;
}

std::uint64_t TcpConnection::bytes_delivered_to(Side side) const noexcept {
  // Data delivered *to* the client travelled on the down half.
  return side == Side::kClient ? down_.delivered : up_.delivered;
}

std::uint64_t TcpConnection::retransmissions() const noexcept {
  return up_.retransmissions + down_.retransmissions;
}

double TcpConnection::cwnd_segments(Side sender) const noexcept {
  return half(sender).cwnd;
}

void TcpConnection::trace_congestion(Side sender) {
  // Counter tracks per sending side; the server→client (down) direction is
  // the one whose slow-start rounds shape push behaviour.
  const Half& h = half(sender);
  const std::string side(side_name(sender));
  trace_->counter(trace_track_, "tcp", "cwnd." + side, h.cwnd);
  if (h.ssthresh < 1e8) {
    trace_->counter(trace_track_, "tcp", "ssthresh." + side, h.ssthresh);
  }
}

void TcpConnection::try_send(Side sender) {
  Half& h = half(sender);
  const auto mss = static_cast<std::uint64_t>(kMss);
  const std::uint64_t end = h.buffer.end_seq();
  while (h.snd_nxt < end) {
    const std::uint64_t in_flight = h.snd_nxt - h.snd_una;
    const auto cwnd_bytes =
        static_cast<std::uint64_t>(h.cwnd * static_cast<double>(mss));
    if (in_flight + mss > cwnd_bytes && in_flight > 0) break;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(mss, end - h.snd_nxt));
    transmit_segment(sender, h.snd_nxt, len, /*is_retransmit=*/false);
    h.snd_nxt += len;
  }
  maybe_signal_writable(sender);
}

void TcpConnection::transmit_segment(Side sender, std::uint64_t seq,
                                     std::size_t len, bool is_retransmit) {
  Half& h = half(sender);
  if (is_retransmit) {
    ++h.retransmissions;
    if (trace_) {
      trace_->instant(trace_track_, "tcp",
                      std::string("retransmit.") + side_name(sender),
                      {{"seq", seq}, {"len", len}});
      ++trace_->summary().retransmissions;
    }
  }
  // Karn: only sample RTT on fresh transmissions, one sample at a time.
  if (!is_retransmit && h.sample_sent_at < 0) {
    h.sample_seq = seq + len;
    h.sample_sent_at = sim_.now();
  } else if (is_retransmit && seq < h.sample_seq) {
    h.sample_sent_at = -1;  // invalidate sample spanning a retransmit
  }
  h.data_path->transmit(len + kHeaderBytes, [this, sender, seq, len] {
    on_segment(sender, seq, len);
  });
  arm_rto(sender);
}

void TcpConnection::on_segment(Side sender, std::uint64_t seq,
                               std::size_t len) {
  Half& h = half(sender);
  const std::uint64_t end = seq + len;
  if (end <= h.rcv_nxt) {
    send_ack(sender);  // duplicate of already-received data
    return;
  }
  if (seq > h.rcv_nxt) {
    h.ooo.emplace(seq, end);  // hole: buffer out of order
    send_ack(sender);
    return;
  }
  // In-order (possibly partially duplicate) segment: deliver from rcv_nxt,
  // through any out-of-order segments that are now contiguous.
  const std::uint64_t from = h.rcv_nxt;
  h.rcv_nxt = end;
  while (!h.ooo.empty()) {
    auto it = h.ooo.begin();
    if (it->first > h.rcv_nxt) break;
    h.rcv_nxt = std::max(h.rcv_nxt, it->second);
    h.ooo.erase(it);
  }
  const auto delivered = static_cast<std::size_t>(h.rcv_nxt - from);
  h.delivered += delivered;
  send_ack(sender);
  if (callbacks_.on_deliver || callbacks_.on_receive) {
    delivery_.clear();
    h.buffer.slices(from, h.rcv_nxt, delivery_);
    if (callbacks_.on_deliver) {
      callbacks_.on_deliver(receiver_of(sender), delivery_);
    } else {
      callbacks_.on_receive(receiver_of(sender),
                            util::flatten(delivery_, scratch_));
    }
  }
}

void TcpConnection::send_ack(Side data_sender) {
  Half& h = half(data_sender);
  const std::uint64_t ack = h.rcv_nxt;
  h.last_ack_sent = ack;
  h.ack_path->transmit(kHeaderBytes,
                       [this, data_sender, ack] { on_ack(data_sender, ack); });
}

void TcpConnection::on_ack(Side sender, std::uint64_t ack) {
  Half& h = half(sender);
  const auto mss_d = static_cast<double>(kMss);
  if (ack > h.snd_una) {
    const std::uint64_t newly = ack - h.snd_una;
    h.snd_una = ack;
    // RTT sample.
    if (h.sample_sent_at >= 0 && ack >= h.sample_seq) {
      const Time rtt = sim_.now() - h.sample_sent_at;
      h.sample_sent_at = -1;
      if (!h.rtt_seeded) {
        h.srtt = rtt;
        h.rttvar = rtt / 2;
        h.rtt_seeded = true;
      } else {
        const Time err = std::abs(h.srtt - rtt);
        h.rttvar = (3 * h.rttvar + err) / 4;
        h.srtt = (7 * h.srtt + rtt) / 8;
      }
      h.rto = std::max(kRtoMin, h.srtt + 4 * h.rttvar);
      if (trace_) {
        trace_->counter(trace_track_, "tcp",
                        std::string("srtt_ms.") + side_name(sender),
                        to_ms(h.srtt));
      }
    }
    // Karn: a backed-off RTO is retained until a fresh RTT sample — resets
    // on mere ACK progress re-arm spurious timeouts when ACKs are merely
    // delayed (e.g. queued behind requests on the thin uplink).
    if (h.in_recovery) {
      if (ack >= h.recover) {
        h.in_recovery = false;
        h.dup_acks = 0;
        h.cwnd = h.ssthresh;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(kMss, h.buffer.end_seq() - h.snd_una));
        if (len > 0)
          transmit_segment(sender, h.snd_una, len, /*is_retransmit=*/true);
      }
    } else {
      h.dup_acks = 0;
      const double acked_segments = static_cast<double>(newly) / mss_d;
      if (h.cwnd < h.ssthresh) {
        h.cwnd += acked_segments;  // slow start
      } else {
        h.cwnd += acked_segments / h.cwnd;  // congestion avoidance
      }
    }
    h.buffer.release_below(h.snd_una);
    if (h.snd_una == h.buffer.end_seq()) {
      sim_.cancel(h.rto_timer);
      h.rto_timer = kInvalidEvent;
    } else {
      arm_rto(sender);
    }
  } else if (ack == h.snd_una && h.snd_nxt > h.snd_una) {
    ++h.dup_acks;
    if (h.dup_acks == 3 && !h.in_recovery) {
      // Fast retransmit + NewReno recovery.
      const double flight =
          static_cast<double>(h.snd_nxt - h.snd_una) / mss_d;
      h.ssthresh = std::max(flight / 2.0, 2.0);
      h.cwnd = h.ssthresh + 3.0;
      h.in_recovery = true;
      h.recover = h.snd_nxt;
      if (trace_) {
        trace_->instant(trace_track_, "tcp",
                        std::string("fast_retransmit.") + side_name(sender),
                        {{"seq", h.snd_una}});
      }
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(kMss, h.buffer.end_seq() - h.snd_una));
      if (len > 0)
        transmit_segment(sender, h.snd_una, len, /*is_retransmit=*/true);
    } else if (h.dup_acks > 3 && h.in_recovery) {
      h.cwnd += 1.0;  // inflate during recovery
    }
  }
  if (trace_) trace_congestion(sender);
  try_send(sender);
}

void TcpConnection::arm_rto(Side sender) {
  Half& h = half(sender);
  // Re-armed on every segment and ACK: move the pending timer rather than
  // cancel it and queue another (same firing order, see Simulator::rearm).
  const Time at = sim_.now() + h.rto;
  if (!sim_.rearm(h.rto_timer, at)) {
    h.rto_timer = sim_.schedule_at(at, [this, sender] { on_rto(sender); });
  }
}

void TcpConnection::on_rto(Side sender) {
  Half& h = half(sender);
  h.rto_timer = kInvalidEvent;
  if (h.snd_una >= h.buffer.end_seq()) return;  // nothing outstanding
  const double flight = static_cast<double>(h.snd_nxt - h.snd_una) /
                        static_cast<double>(kMss);
  h.ssthresh = std::max(flight / 2.0, 2.0);
  h.cwnd = 1.0;
  h.dup_acks = 0;
  h.in_recovery = false;
  h.rto = std::min<Time>(h.rto * 2, from_seconds(60));  // Karn backoff
  // Go-back-N: multiple holes in one window would otherwise each cost one
  // (exponentially growing) RTO. The receiver buffers out-of-order data and
  // acks cumulatively, so redundant retransmissions resolve instantly.
  h.snd_nxt = h.snd_una;
  h.sample_sent_at = -1;  // Karn: no sampling across a timeout
  ++h.retransmissions;
  if (trace_) {
    trace_->instant(trace_track_, "tcp",
                    std::string("rto.") + side_name(sender),
                    {{"next_rto_ms", to_ms(h.rto)}});
    ++trace_->summary().retransmissions;
    trace_congestion(sender);
  }
  try_send(sender);
}

void TcpConnection::maybe_signal_writable(Side sender) {
  Half& h = half(sender);
  const bool low = unsent_bytes(sender) < kWriteWatermark;
  if (low && !h.writable_low) {
    h.writable_low = true;
    if (callbacks_.on_writable) callbacks_.on_writable(sender);
  } else if (!low) {
    h.writable_low = false;
  }
}

}  // namespace h2push::sim
