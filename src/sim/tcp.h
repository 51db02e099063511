// TCP connection model.
//
// A bidirectional byte stream between a client and a server over two Routes
// (uplink / downlink). The model is packet-granular Reno/NewReno:
//   - 3-way handshake (1 RTT) followed by kTlsRoundTrips TLS round trips
//     (2: TLS 1.2 as deployed in 2018),
//   - IW10 slow start, congestion avoidance, per-segment cumulative ACKs,
//   - fast retransmit on 3 dup-ACKs with NewReno partial-ACK recovery,
//   - RTO with Karn-style backoff.
// The slow-start round structure is essential for the paper's results: it is
// what creates the "network idle time" that Server Push can fill, and what
// makes large HTML documents take multiple round trips (paper §4.3, s8).
//
// Applications write straight into the send buffer (write) and see an
// ordered byte stream (on_deliver or on_receive) and a writability signal
// (on_writable) that fires when fewer than kWriteWatermark unsent bytes
// remain buffered, so schedulers make frame-level decisions late — exactly
// how h2o interacts with its socket buffers.
//
// The parameters are the paper's testbed (§4.1) and no experiment varies
// them, so they are constants, not settings. The run cache's keys do not
// hash them: changing one changes results, so it needs a
// kCacheFormatVersion bump (core/memo.h); a static_assert in core/memo.cc
// holds a copy of them and fails the build until both are changed.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/link.h"
#include "sim/simulator.h"
#include "util/piece.h"

namespace h2push::sim {

inline constexpr std::size_t kMss = 1460;
inline constexpr std::size_t kHeaderBytes = 40;  ///< TCP/IP header per packet
inline constexpr double kInitialCwnd = 10.0;     ///< segments (RFC 6928)
inline constexpr double kInitialSsthresh = 1e9;  ///< effectively "no limit"
inline constexpr Time kRtoMin = from_ms(200);
inline constexpr Time kRtoInitial = from_ms(1000);
inline constexpr int kTlsRoundTrips = 2;  ///< TLS 1.2 full handshake
inline constexpr std::size_t kTlsClientFlight = 512;   ///< ClientHello/Finished
inline constexpr std::size_t kTlsServerFlight = 4096;  ///< cert chain
inline constexpr std::size_t kWriteWatermark = 2 * 1460;

/// No settings: the model's parameters are the constants above. Kept
/// because the benchmark's TCP probe (perfbench/src/probes.cc), which is
/// not edited alongside the library, passes TcpConfig{} to the constructor.
struct TcpConfig {};
static_assert(std::is_empty_v<TcpConfig>);

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
    /// scratch buffer. Valid only during the callback. Every endpoint in
    /// the library reads pieces through on_deliver; this form is kept for
    /// perfbench's TCP probe, bench_micro_protocol and tests/sim_test.cc,
    /// and scripts/check.sh fails if src/ names it outside sim/tcp.
    std::function<void(Side side, std::span<const std::uint8_t>)> on_receive;
    /// `side` may write again (unsent buffer below watermark).
    std::function<void(Side side)> on_writable;
  };

  /// `up` carries client→server packets, `down` server→client.
  TcpConnection(Simulator& sim, TcpConfig, Route up, Route down,
                Callbacks callbacks);

  /// Begin the handshake. on_connected fires when the client may write.
  void connect();

  /// The one way application bytes enter the connection: `produce(out)`
  /// writes them from `side` straight into the send buffer, a
  /// util::PieceSink. Bytes written with write() are copied; a slice
  /// written with write_shared() is kept by reference until acknowledged.
  /// Then transmission starts as far as the window allows. `produce` must
  /// not write to this side again while it runs. Returns the bytes written.
  template <typename Produce>
  std::size_t write(Side side, Produce&& produce) {
    Half& h = half(side);
    assert(!h.writing && "nested TcpConnection::write on one side");
    const std::uint64_t begin = h.buffer.end_seq();
    h.writing = true;
    std::forward<Produce>(produce)(static_cast<util::PieceSink&>(h.buffer));
    h.writing = false;
    const auto written = static_cast<std::size_t>(h.buffer.end_seq() - begin);
    if (written != 0) written_by(side);
    return written;
  }
  /// write() of a copy of `data`.
  void send(Side side, std::span<const std::uint8_t> data) {
    write(side, [data](util::PieceSink& out) { out.write(data); });
  }

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
  // piece up to end_seq(), as a list of pieces in sequence order. A piece
  // with an owner references a slice of a shared buffer (a response body
  // sent by reference); the others hold bytes copied into chunks of this
  // buffer's own kSendChunkBytes chunks, which are never moved or
  // reallocated. A piece is dropped once every byte in it is acknowledged,
  // a full chunk once every copied byte in it is; one dropped chunk is kept
  // for the next copy, so a steady transfer allocates nothing.
  class SendBuffer final : public util::PieceSink {
   public:
    /// Copy `bytes` into the buffer's storage.
    void write(std::span<const std::uint8_t> bytes) override;
    /// Keep `bytes`, which lie inside `*owner`, by reference. A slice that
    /// continues the last piece's slice of the same buffer extends that
    /// piece, as copied bytes behind the last copy do.
    void write_shared(const util::SharedBytes& owner,
                      std::span<const std::uint8_t> bytes) override;
    /// One past the sequence number of the last byte written.
    std::uint64_t end_seq() const noexcept { return end_seq_; }
    /// Append to `out` the slices of the pieces holding bytes [from, to),
    /// which must be held. Each call must start where the last one ended
    /// or later, as in-order deliveries do.
    void slices(std::uint64_t from, std::uint64_t to,
                std::vector<util::Piece>& out);
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
    std::size_t cursor_ = 0;  // the piece the last slices() call ended in
    std::vector<Chunk> chunks_;
    std::unique_ptr<std::uint8_t[]> spare_;
    std::size_t tail_used_ = 0;  // bytes used in chunks_.back()
    std::uint64_t end_seq_ = 0;  // one past the last byte written
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
    bool writing = false;  // a write() is running on this side
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    double cwnd = kInitialCwnd;
    double ssthresh = kInitialSsthresh;
    int dup_acks = 0;
    bool in_recovery = false;
    std::uint64_t recover = 0;
    EventId rto_timer = kInvalidEvent;
    Time rto = kRtoInitial;
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

  // After write() put bytes on `sender`'s buffer: the watermark check,
  // then transmission.
  void written_by(Side sender);
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
  Time handshake_rto_ = kRtoInitial;

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace h2push::sim
