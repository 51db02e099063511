// TCP connection model.
//
// A bidirectional byte stream between a client and a server over two Routes
// (uplink / downlink). The model is packet-granular Reno/NewReno:
//   - 3-way handshake (1 RTT) followed by a configurable number of TLS
//     round trips (2 by default, matching TLS 1.2 as deployed in 2018),
//   - IW10 slow start, congestion avoidance, per-segment cumulative ACKs,
//   - fast retransmit on 3 dup-ACKs with NewReno partial-ACK recovery,
//   - RTO with Karn-style backoff.
// The slow-start round structure is essential for the paper's results: it is
// what creates the "network idle time" that Server Push can fill, and what
// makes large HTML documents take multiple round trips (paper §4.3, s8).
//
// Applications see an ordered byte stream (on_deliver or on_receive) and a
// writability signal (on_writable) that fires when fewer than
// `write_watermark` unsent bytes remain buffered, so schedulers make
// frame-level decisions late — exactly how h2o interacts with its socket
// buffers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "util/piece.h"

namespace h2push::sim {

struct TcpConfig {
  std::size_t mss = 1460;
  std::size_t header_bytes = 40;     ///< TCP/IP header per packet
  double initial_cwnd = 10.0;        ///< segments (RFC 6928)
  double initial_ssthresh = 1e9;     ///< effectively "no limit"
  Time rto_min = from_ms(200);
  Time rto_initial = from_ms(1000);
  int tls_round_trips = 2;           ///< 2 = TLS 1.2 full handshake
  std::size_t tls_client_flight = 512;   ///< bytes (ClientHello/Finished)
  std::size_t tls_server_flight = 4096;  ///< bytes (cert chain)
  std::size_t write_watermark = 2 * 1460;
};

class TcpConnection {
 public:
  enum class Side { kClient, kServer };

  struct Callbacks {
    /// Fires on the client when the TCP+TLS handshake completes.
    std::function<void()> on_connected;
    /// Fires on the server half an RTT earlier (when its handshake ends).
    std::function<void()> on_accepted;
    /// In-order application bytes arriving at `side`, one delivery per
    /// call, as the send-buffer pieces they lie in (segments carry sequence
    /// ranges, not bytes): bytes the sender copied, or slices of the shared
    /// buffers it sent by reference. Valid only during the callback. When
    /// set, on_receive is not called.
    std::function<void(Side side, std::span<const util::Piece>)> on_deliver;
    /// The same deliveries as one contiguous span each: in place when the
    /// delivery lies in one piece, otherwise assembled in the connection's
    /// scratch buffer. Valid only during the callback.
    std::function<void(Side side, std::span<const std::uint8_t>)> on_receive;
    /// `side` may write again (unsent buffer below watermark).
    std::function<void(Side side)> on_writable;
  };

  /// `up` carries client→server packets, `down` server→client.
  TcpConnection(Simulator& sim, TcpConfig config, Route up, Route down,
                Callbacks callbacks);

  /// Begin the handshake. on_connected fires when the client may write.
  void connect();

  /// Queue application bytes for transmission from `side`; they are
  /// copied before send() returns.
  void send(Side side, std::span<const std::uint8_t> data);
  /// Queue `pieces` in order: a piece with an owner is kept by reference
  /// until acknowledged, any other is copied.
  void send(Side side, std::span<const util::Piece> pieces);

  bool connected() const noexcept { return connected_; }
  Time connect_end_time() const noexcept { return connect_end_time_; }

  /// Unsent application bytes buffered on `side`.
  std::size_t unsent_bytes(Side side) const noexcept;
  bool writable(Side side) const noexcept;

  /// Total application bytes delivered to `side` so far.
  std::uint64_t bytes_delivered_to(Side side) const noexcept;

  std::uint64_t retransmissions() const noexcept;
  double cwnd_segments(Side sender) const noexcept;

  /// Attach a trace recorder: cwnd/ssthresh/srtt counter tracks, loss
  /// recovery and handshake instants.
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    trace_track_ = track;
  }

  /// Size of each chunk of the send buffer's storage for copied bytes.
  static constexpr std::size_t kSendChunkBytes = 64 * 1024;

 private:
  // A sender's application bytes from the first not fully acknowledged
  // piece up to app_end, as a list of pieces in sequence order. A piece
  // with an owner references a slice of a shared buffer (a response body
  // sent by reference); the others hold bytes copied into chunks of this
  // buffer's own kSendChunkBytes chunks, which are never moved or
  // reallocated. A piece is dropped once every byte in it is acknowledged,
  // a full chunk once every copied byte in it is; one dropped chunk is kept
  // for the next copy, so a steady transfer allocates nothing.
  class SendBuffer {
   public:
    /// Copy `bytes` into the buffer's storage.
    void append(std::span<const std::uint8_t> bytes);
    /// Keep `bytes`, which lie inside `*owner`, by reference.
    void append_shared(const util::SharedBytes& owner,
                       std::span<const std::uint8_t> bytes);
    /// Append to `out` the slices of the pieces holding bytes [from, to),
    /// which must be held.
    void slices(std::uint64_t from, std::uint64_t to,
                std::vector<util::Piece>& out) const;
    /// Drop the pieces and chunks whose bytes all lie below `acked`.
    void release_below(std::uint64_t acked);

   private:
    struct Entry {
      std::uint64_t seq = 0;  // sequence number of bytes[0]
      std::span<const std::uint8_t> bytes;
      util::SharedBytes owner;  // null: the bytes lie in a chunk
    };
    struct Chunk {
      std::unique_ptr<std::uint8_t[]> bytes;
      std::uint64_t end_seq = 0;  // one past the last byte copied into it
    };

    std::vector<Entry> entries_;
    std::size_t head_ = 0;  // entries_[head_] is the first piece held
    std::vector<Chunk> chunks_;
    std::unique_ptr<std::uint8_t[]> spare_;
    std::size_t tail_used_ = 0;  // bytes used in chunks_.back()
    std::uint64_t end_seq_ = 0;  // one past the last byte appended
  };

  // One direction of application data flow.
  struct Half {
    Route data_route;   // carries data segments
    Route ack_route;    // carries ACKs back to the sender
    // --- sender state ---
    // Segments in flight carry only (seq, len); the receiver reads
    // delivered bytes from here. Only pieces below snd_una are released,
    // and snd_una never passes the receiver's rcv_nxt, so every byte not
    // yet delivered is still here.
    SendBuffer buffer;
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint64_t app_end = 0;
    double cwnd = 10.0;
    double ssthresh = 1e9;
    int dup_acks = 0;
    bool in_recovery = false;
    std::uint64_t recover = 0;
    EventId rto_timer = kInvalidEvent;
    Time rto = from_ms(1000);
    Time srtt = 0;
    Time rttvar = 0;
    bool rtt_seeded = false;
    std::uint64_t retransmissions = 0;
    bool writable_low = true;  // below watermark (edge-triggered signal)
    // RTT sampling (one outstanding sample, Karn's rule).
    std::uint64_t sample_seq = 0;
    Time sample_sent_at = -1;
    // --- receiver state ---
    std::uint64_t rcv_nxt = 0;
    std::map<std::uint64_t, std::uint64_t> ooo;  // out-of-order seq → end
    std::uint64_t delivered = 0;
    std::uint64_t last_ack_sent = 0;
  };

  Half& half(Side sender) noexcept {
    return sender == Side::kClient ? up_ : down_;
  }
  const Half& half(Side sender) const noexcept {
    return sender == Side::kClient ? up_ : down_;
  }
  static Side receiver_of(Side sender) noexcept {
    return sender == Side::kClient ? Side::kServer : Side::kClient;
  }

  void advance_handshake(int arrived_step);
  void send_handshake_packet();
  void try_send(Side sender);
  void transmit_segment(Side sender, std::uint64_t seq, std::size_t len,
                        bool is_retransmit);
  void on_segment(Side sender, std::uint64_t seq, std::size_t len);
  void send_ack(Side data_sender);
  void on_ack(Side sender, std::uint64_t ack);
  void arm_rto(Side sender);
  void on_rto(Side sender);
  void maybe_signal_writable(Side sender);
  void trace_congestion(Side sender);

  Simulator& sim_;
  TcpConfig config_;
  Callbacks callbacks_;
  Half up_;    // client → server
  Half down_;  // server → client
  // The pieces of the current delivery, and the bytes of one that
  // on_receive needs flattened.
  std::vector<util::Piece> delivery_;
  std::vector<std::uint8_t> scratch_;
  bool connected_ = false;
  Time connect_end_time_ = 0;

  // Handshake state machine: steps alternate directions (SYN, SYN/ACK,
  // then one client + one server flight per TLS round trip). Lost
  // handshake packets are retransmitted with exponential backoff.
  int handshake_step_ = -1;
  int handshake_total_steps_ = 0;
  EventId handshake_timer_ = kInvalidEvent;
  Time handshake_rto_ = from_ms(1000);

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace h2push::sim
