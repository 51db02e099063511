// HTTP/2 connection endpoint.
//
// One Connection instance is either the client or the server end of an H2
// session. It speaks real bytes: the write side serializes frames (control
// frames first, then DATA in priority-tree order), the read side runs the
// incremental FrameParser and HPACK decoder. Both endpoints in a simulation
// are instances of this class wired together through the TCP model, so the
// full framing/HPACK path is exercised on every simulated page load.
//
// Flow control (RFC 7540 §5.2) is enforced on the send path against both
// the per-stream and the connection window; the receive path auto-issues
// WINDOW_UPDATEs assuming the application consumes data immediately (true
// for both our browser and replay server).
//
// DATA is scheduled by the connection's RFC 7540 §5.3 dependency tree
// (h2/priority.h), plus one server-side rule: the paper's §5 interleaving
// hold (interleave()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "h2/frame.h"
#include "h2/hpack.h"
#include "h2/priority.h"
#include "http/message.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::h2 {

enum class Role : std::uint8_t { kClient, kServer };

enum class StreamState : std::uint8_t {
  kIdle,
  kReservedLocal,   // we sent PUSH_PROMISE
  kReservedRemote,  // we received PUSH_PROMISE
  kOpen,
  kHalfClosedLocal,
  kHalfClosedRemote,
  kClosed,
};

/// Immutable response body shared across runs (bytes are real content: the
/// browser parses HTML/CSS bodies it receives through the connection).
using Body = std::shared_ptr<const std::string>;

class Connection {
 public:
  struct Config {
    Role role = Role::kClient;
    /// Our SETTINGS_INITIAL_WINDOW_SIZE (receive direction). Chromium-like
    /// clients announce large windows so server push is not window-bound.
    std::uint32_t initial_window = kDefaultInitialWindow;
    /// Extra connection-level WINDOW_UPDATE announced at startup.
    std::uint32_t connection_window_bonus = 0;
    /// Client only: SETTINGS_ENABLE_PUSH (the paper's "no push" arm signals
    /// 0 here, §2.1).
    bool enable_push = true;
    std::size_t header_table_size = 4096;
  };

  struct Callbacks {
    /// Complete header block received: a request (server role) or response
    /// (client role).
    std::function<void(std::uint32_t stream, http::HeaderBlock,
                       bool end_stream)>
        on_headers;
    std::function<void(std::uint32_t stream, std::span<const std::uint8_t>,
                       bool end_stream)>
        on_data;
    /// Client role: PUSH_PROMISE received on `parent`.
    std::function<void(std::uint32_t parent, std::uint32_t promised,
                       http::HeaderBlock request_headers)>
        on_push_promise;
    std::function<void(std::uint32_t stream, ErrorCode)> on_rst;
    std::function<void()> on_remote_settings;
    std::function<void(const std::string&)> on_connection_error;
    /// New bytes are available to write; the transport glue should pump.
    std::function<void()> on_write_ready;
    /// A stream fully closed (both directions done).
    std::function<void(std::uint32_t stream)> on_stream_closed;
    /// Extension (non-RFC-7540) frame received, e.g. CACHE_DIGEST.
    std::function<void(const ExtensionFrame&)> on_extension_frame;
  };

  Connection(Config config, Callbacks callbacks);

  /// Queue the connection preface (client) and initial SETTINGS.
  void start();

  // --- client API ---
  /// Returns the new (odd) stream id.
  std::uint32_t submit_request(const http::HeaderBlock& headers,
                               std::optional<PrioritySpec> priority = {});
  void submit_priority(std::uint32_t stream, const PrioritySpec& spec);
  void submit_rst(std::uint32_t stream, ErrorCode error);
  /// Queue an extension frame (e.g. a CACHE_DIGEST after SETTINGS).
  void submit_extension(const ExtensionFrame& frame);

  /// Queue a GOAWAY advertising the highest peer stream processed, without
  /// tearing the connection down: in-flight streams still drain. Used by
  /// the live daemon's graceful SIGTERM drain (src/net/).
  void submit_goaway(ErrorCode error = ErrorCode::kNoError,
                     const std::string& debug_data = "");

  // --- server API ---
  /// Reserve an (even) push stream on `parent`; queues PUSH_PROMISE.
  /// Returns 0 if the peer disabled push or the parent is gone.
  std::uint32_t submit_push_promise(std::uint32_t parent,
                                    const http::HeaderBlock& request_headers);
  /// Queue response HEADERS and hand the body to the tree-scheduled
  /// write path. An empty body closes the stream with the headers.
  void submit_response(std::uint32_t stream, const http::HeaderBlock& headers,
                       Body body);
  /// The paper's §5 hard switch (Fig. 5a): once `parent` has sent `offset`
  /// body bytes, hold it until every stream in `critical` has queued
  /// END_STREAM or closed; meanwhile the tree serves the other streams.
  /// Critical streams already done are dropped, and an empty set holds
  /// nothing. Replaces any earlier hold. Traces interleave.pause / .resume.
  void interleave(std::uint32_t parent, std::size_t offset,
                  std::vector<std::uint32_t> critical);

  // --- transport glue ---
  void receive(std::span<const std::uint8_t> bytes);
  bool want_write() const;
  /// True when nothing is queued AND no stream still holds response data —
  /// even flow-control-blocked data want_write() would not report. The
  /// drain-safe close condition for the live daemon.
  bool send_quiescent() const;
  /// The one write path, for the simulator and the live daemon alike:
  /// append whole frames to `out` until at least `max_bytes` were appended
  /// or nothing more may be sent — control frames first, then DATA frames
  /// capped by the windows and kDefaultMaxFrameSize. The last frame may
  /// overshoot `max_bytes` by up to its own size: one DATA frame (16,393
  /// bytes) or one of our control frames (a header block with its
  /// CONTINUATIONs counts as one), so frame boundaries never depend on the
  /// caller's budget. Returns the bytes appended; a caller reusing `out`
  /// allocates nothing once it is warm.
  std::size_t produce(std::vector<std::uint8_t>& out, std::size_t max_bytes);
  /// produce(out, max_bytes) into a fresh buffer.
  std::vector<std::uint8_t> produce(std::size_t max_bytes);
  /// Same as produce(out, max_bytes). Kept because the benchmark's client
  /// (perfbench/src/open_loop.cc), which is not edited alongside the
  /// library, calls it by this name.
  std::size_t produce_into(std::vector<std::uint8_t>& out,
                           std::size_t max_bytes) {
    return produce(out, max_bytes);
  }

  /// Attach a trace recorder: per-frame send/recv instants, flow-control
  /// window counters, and DATA scheduling switch points on `track`.
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    trace_track_ = track;
  }

  // --- introspection ---
  bool push_enabled_by_peer() const noexcept { return peer_enable_push_; }
  /// kClosed for a stream that was opened (or reserved) and is gone from
  /// the stream table; kIdle for an id never used.
  StreamState stream_state(std::uint32_t stream) const;
  /// Body bytes sent on a stream still in the table (0 once it closed).
  std::uint64_t data_bytes_sent(std::uint32_t stream) const;
  std::uint64_t total_data_sent() const noexcept { return total_data_sent_; }
  const std::string& last_error() const noexcept { return last_error_; }
  /// Error code of the GOAWAY we sent (kNoError while healthy).
  ErrorCode last_error_code() const noexcept { return last_error_code_; }
  /// Streams in the table: a closed stream is erased as it closes.
  std::size_t stream_count() const noexcept { return streams_.size(); }
  const PriorityTree& priority_tree() const noexcept { return tree_; }
  const HpackEncoder& hpack_encoder() const noexcept { return encoder_; }

  /// Self-check of the connection's accounting invariants (receive windows
  /// never negative, send windows within RFC bounds, body cursors inside
  /// their bodies, no closed stream left in the table, and the pending
  /// counts and the tree's ready counts equal to a recount). Returns a
  /// description of the first violation, or nullopt when consistent. Used
  /// by the fuzzing harness after every chunk of adversarial input.
  std::optional<std::string> check_invariants() const;

 private:
  struct Stream {
    StreamState state = StreamState::kIdle;
    std::int64_t send_window = kDefaultInitialWindow;
    std::int64_t recv_window = kDefaultInitialWindow;
    std::uint64_t recv_unacked = 0;  // consumed but not yet window-updated
    Body body;
    std::size_t body_offset = 0;
    bool body_pending = false;   // response submitted, data left to send
    bool local_done = false;   // we will send no more
    bool remote_done = false;  // peer sent END_STREAM
    // What refresh() last counted for this stream: in pending_streams_,
    // in sendable_streams_, and marked ready in tree_.
    bool counted_pending = false;
    bool counted_sendable = false;
    bool marked_ready = false;
  };

  void queue_control(const Frame& frame);
  bool control_pending() const noexcept {
    return control_head_ != control_ends_.size();
  }
  /// Bytes of control_bytes_ already sent: the end of the last sent frame.
  std::size_t control_sent() const noexcept {
    return control_head_ == 0 ? 0 : control_ends_[control_head_ - 1];
  }
  /// After control frames were taken: reset the queue once drained.
  void control_consumed();
  /// Encode `headers` into the reusable HPACK scratch buffer and append a
  /// HEADERS (or, with `promised_id`, PUSH_PROMISE) frame straight to the
  /// control buffer — no intermediate Frame variant or block copy.
  void queue_header_frame(std::uint32_t stream_id,
                          const http::HeaderBlock& headers, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::uint32_t promised_id = 0);
  void trace_send(std::string_view name, std::uint32_t stream,
                  std::int64_t bytes);
  void connection_error(ErrorCode code, const std::string& message);
  /// Every frame but DATA, which FrameParser hands over as a view.
  void handle_frame(Frame frame);
  void handle_data(const DataView& frame);
  void apply_remote_settings(const SettingsFrame& frame);
  Stream& ensure_stream(std::uint32_t id);
  /// For an id not in the table: was it opened or reserved before? Local
  /// ids below next_stream_id_ were; peer ids up to max_peer_stream_ were
  /// unless the peer skipped them (RFC 9113 §5.1.1).
  bool was_opened(std::uint32_t id) const;
  /// The peer opened (client role: promised) `id`, its highest so far.
  void note_peer_stream(std::uint32_t id);
  /// Bring the pending counts and the tree's ready mark in line with the
  /// stream's body, send window and the hold. Called after every change to
  /// any of them.
  void refresh(std::uint32_t id, Stream& s);
  void refresh(std::uint32_t id);
  /// Erase a closed stream from the table.
  void forget(std::uint32_t id);
  void maybe_close(std::uint32_t id);
  /// The stream left the schedule (closed or reset): drop it from the tree
  /// and from the hold.
  void unschedule(std::uint32_t id);
  /// `id` queued END_STREAM or closed: it no longer keeps the hold.
  void release_hold(std::uint32_t id);
  /// Append the tree's next DATA frame, its payload capped by the
  /// flow-control windows and kDefaultMaxFrameSize, and do the stream
  /// bookkeeping. Returns the payload size; 0 when no stream is ready.
  std::size_t append_next_data_frame(std::vector<std::uint8_t>& out);
  void signal_write();

  Config config_;
  Callbacks callbacks_;
  FrameParser parser_;
  HpackEncoder encoder_;
  HpackDecoder decoder_;
  PriorityTree tree_;
  // The interleaving hold (interleave()); hold_parent_ == 0 when none.
  std::uint32_t hold_parent_ = 0;
  std::size_t hold_offset_ = 0;
  std::vector<std::uint32_t> hold_critical_;

  std::unordered_map<std::uint32_t, Stream> streams_;  // not closed yet
  std::size_t pending_streams_ = 0;   // streams with body_pending
  std::size_t sendable_streams_ = 0;  // ... and a positive send window
  std::uint32_t next_stream_id_;  // odd (client) / even (server pushes)
  // Highest stream id the peer has opened / promised. A lower id not in
  // the table is closed, unless it lies in one of the ranges the peer
  // jumped over: those are still idle, and frames on them are protocol
  // errors (§5.1.1). A well-behaved peer skips no ids.
  std::uint32_t max_peer_stream_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> skipped_peer_ids_;
  bool preface_pending_ = false;  // server expects the client preface
  std::vector<std::uint8_t> preface_buf_;
  bool started_ = false;

  // Peer-announced settings governing our send path. The peer's
  // SETTINGS_MAX_FRAME_SIZE is range-checked but not kept: we never send
  // a frame above kDefaultMaxFrameSize, which every peer must accept.
  std::uint32_t peer_initial_window_ = kDefaultInitialWindow;
  bool peer_enable_push_ = true;

  std::int64_t send_window_ = kDefaultInitialWindow;   // connection-level
  std::int64_t recv_window_ = kDefaultInitialWindow;
  std::uint64_t recv_unacked_ = 0;

  // Control frames queued ahead of DATA, back to back in one buffer that
  // is reused once drained; frame i ends at control_ends_[i].
  std::vector<std::uint8_t> control_bytes_;
  std::vector<std::size_t> control_ends_;
  std::size_t control_head_ = 0;  // first frame not sent
  std::vector<std::uint8_t> hpack_scratch_;  // reused per header block
  std::uint64_t total_data_sent_ = 0;
  std::string last_error_;
  ErrorCode last_error_code_ = ErrorCode::kNoError;
  bool errored_ = false;
  bool receiving_ = false;  // inside parser_.parse (re-entry guard)

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::uint32_t last_data_stream_ = 0;  // trace-only: DATA switch detection
  bool hold_paused_ = false;  // trace-only: interleave.pause emitted
};

}  // namespace h2push::h2
