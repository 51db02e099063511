#include "h2/connection.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "trace/trace.h"

namespace h2push::h2 {
namespace {

struct FrameTraceInfo {
  std::string_view name;
  std::uint32_t stream = 0;
  std::int64_t bytes = 0;  // payload-ish size for DATA/header blocks
};

FrameTraceInfo frame_trace_info(const Frame& frame) {
  return std::visit(
      [](const auto& f) -> FrameTraceInfo {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          return {to_string(FrameType::kData), f.stream_id,
                  static_cast<std::int64_t>(f.data.size())};
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          return {to_string(FrameType::kHeaders), f.stream_id,
                  static_cast<std::int64_t>(f.header_block.size())};
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          return {to_string(FrameType::kPriority), f.stream_id, 5};
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          return {to_string(FrameType::kRstStream), f.stream_id, 4};
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          return {to_string(FrameType::kSettings), 0,
                  static_cast<std::int64_t>(f.settings.size() * 6)};
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          return {to_string(FrameType::kPushPromise), f.stream_id,
                  static_cast<std::int64_t>(f.header_block.size() + 4)};
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          return {to_string(FrameType::kPing), 0, 8};
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          return {to_string(FrameType::kGoaway), 0,
                  static_cast<std::int64_t>(f.debug_data.size() + 8)};
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          return {to_string(FrameType::kWindowUpdate), f.stream_id, 4};
        } else {
          static_assert(std::is_same_v<T, ExtensionFrame>);
          return {"EXTENSION", f.stream_id,
                  static_cast<std::int64_t>(f.payload.size())};
        }
      },
      frame);
}

}  // namespace

Connection::Connection(Config config, Callbacks callbacks)
    : config_(config),
      callbacks_(std::move(callbacks)),
      encoder_(config.header_table_size),
      decoder_(config.header_table_size),
      next_stream_id_(config.role == Role::kClient ? 1 : 2),
      preface_pending_(config.role == Role::kServer) {
  // The decoder's size-update cap is whatever we announce in SETTINGS.
  decoder_.set_max_table_size(config.header_table_size);
  // Sized for the opening SETTINGS and a burst of header frames, so a
  // short-lived connection grows neither buffer.
  control_bytes_.reserve(1024);
  control_ends_.reserve(16);
  hpack_scratch_.reserve(256);
}

void Connection::start() {
  if (started_) return;
  started_ = true;
  if (config_.role == Role::kClient) {
    const auto preface = client_preface();
    control_bytes_.insert(control_bytes_.end(), preface.begin(),
                          preface.end());
    control_ends_.push_back(control_bytes_.size());
  }
  SettingsFrame settings;
  settings.settings.reserve(4);
  settings.settings.emplace_back(SettingsId::kHeaderTableSize,
                                 static_cast<std::uint32_t>(
                                     config_.header_table_size));
  settings.settings.emplace_back(SettingsId::kInitialWindowSize,
                                 config_.initial_window);
  settings.settings.emplace_back(SettingsId::kMaxFrameSize,
                                 kDefaultMaxFrameSize);
  if (config_.role == Role::kClient) {
    settings.settings.emplace_back(SettingsId::kEnablePush,
                                   config_.enable_push ? 1u : 0u);
  }
  queue_control(Frame{std::move(settings)});
  if (config_.connection_window_bonus > 0) {
    queue_control(Frame{WindowUpdateFrame{0, config_.connection_window_bonus}});
    recv_window_ += config_.connection_window_bonus;
  }
  signal_write();
}

void Connection::trace_send(std::string_view name, std::uint32_t stream,
                            std::int64_t bytes) {
  const std::string key(name);
  trace_->instant(trace_track_, "h2", "send " + key,
                  {{"stream", stream}, {"bytes", bytes}});
  ++trace_->summary().frames_sent[key];
}

void Connection::queue_control(const Frame& frame) {
  if (trace_) {
    const FrameTraceInfo info = frame_trace_info(frame);
    trace_send(info.name, info.stream, info.bytes);
  }
  serialize_into(frame, control_bytes_);
  control_ends_.push_back(control_bytes_.size());
}

void Connection::control_consumed() {
  if (control_head_ == control_ends_.size()) {
    // Drained: the buffers are reused from the start.
    control_bytes_.clear();
    control_ends_.clear();
    control_head_ = 0;
  } else if (control_head_ >= 64 && 2 * control_head_ >= control_ends_.size()) {
    // Never drained (a writer behind a slow socket): drop the sent prefix
    // once it is most of the queue, so the buffers stay proportional to
    // what is still queued.
    const std::size_t sent = control_sent();
    control_bytes_.erase(
        control_bytes_.begin(),
        control_bytes_.begin() + static_cast<std::ptrdiff_t>(sent));
    control_ends_.erase(
        control_ends_.begin(),
        control_ends_.begin() + static_cast<std::ptrdiff_t>(control_head_));
    for (std::size_t& end : control_ends_) end -= sent;
    control_head_ = 0;
  }
}

void Connection::queue_header_frame(std::uint32_t stream_id,
                                    const http::HeaderBlock& headers,
                                    bool end_stream,
                                    const std::optional<PrioritySpec>& priority,
                                    std::uint32_t promised_id) {
  encoder_.encode_into(headers, hpack_scratch_);
  if (promised_id != 0) {
    if (trace_) {
      trace_send(to_string(FrameType::kPushPromise), stream_id,
                 static_cast<std::int64_t>(hpack_scratch_.size() + 4));
    }
    append_push_promise_frame(control_bytes_, stream_id, promised_id,
                              hpack_scratch_);
  } else {
    if (trace_) {
      trace_send(to_string(FrameType::kHeaders), stream_id,
                 static_cast<std::int64_t>(hpack_scratch_.size()));
    }
    append_headers_frame(control_bytes_, stream_id, end_stream, priority,
                         hpack_scratch_);
  }
  control_ends_.push_back(control_bytes_.size());
}

void Connection::signal_write() {
  if (callbacks_.on_write_ready) callbacks_.on_write_ready();
}

void Connection::connection_error(ErrorCode code, const std::string& message) {
  if (errored_) return;
  errored_ = true;
  last_error_ = message;
  last_error_code_ = code;
  queue_control(Frame{GoawayFrame{max_peer_stream_, code, message}});
  if (callbacks_.on_connection_error) callbacks_.on_connection_error(message);
  signal_write();
}

Connection::Stream& Connection::ensure_stream(std::uint32_t id) {
  auto [it, inserted] = streams_.try_emplace(id);
  if (inserted) {
    it->second.send_window = peer_initial_window_;
    it->second.recv_window = config_.initial_window;
  }
  return it->second;
}

bool Connection::was_opened(std::uint32_t id) const {
  if (id == 0) return false;
  if ((id & 1) == (next_stream_id_ & 1)) return id < next_stream_id_;
  if (id > max_peer_stream_) return false;
  // The last skipped range starting at or below `id`, if any.
  const auto after = std::upper_bound(
      skipped_peer_ids_.begin(), skipped_peer_ids_.end(), id,
      [](std::uint32_t v, const auto& range) { return v < range.first; });
  return after == skipped_peer_ids_.begin() || std::prev(after)->second < id;
}

void Connection::note_peer_stream(std::uint32_t id) {
  const std::uint32_t expected =
      max_peer_stream_ != 0 ? max_peer_stream_ + 2
                            : (config_.role == Role::kServer ? 1 : 2);
  if (id > expected) skipped_peer_ids_.emplace_back(expected, id - 2);
  max_peer_stream_ = id;
}

void Connection::refresh(std::uint32_t id, Stream& s) {
  const bool sendable = s.body_pending && s.send_window > 0;
  // The held parent waits at the offset while the tree serves the rest.
  const bool ready =
      sendable && (id != hold_parent_ || s.body_offset < hold_offset_);
  if (s.counted_pending != s.body_pending) {
    s.counted_pending = s.body_pending;
    s.body_pending ? ++pending_streams_ : --pending_streams_;
  }
  if (s.counted_sendable != sendable) {
    s.counted_sendable = sendable;
    sendable ? ++sendable_streams_ : --sendable_streams_;
  }
  if (s.marked_ready != ready) {
    s.marked_ready = ready;
    tree_.set_ready(id, ready);
  }
}

void Connection::refresh(std::uint32_t id) {
  const auto it = streams_.find(id);
  if (it != streams_.end()) refresh(id, it->second);
}

void Connection::forget(std::uint32_t id) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  it->second.body_pending = false;
  refresh(id, it->second);
  streams_.erase(it);
}

std::uint32_t Connection::submit_request(
    const http::HeaderBlock& headers, std::optional<PrioritySpec> priority) {
  assert(config_.role == Role::kClient);
  start();
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  Stream& s = ensure_stream(id);
  s.state = StreamState::kHalfClosedLocal;  // GET with END_STREAM
  s.local_done = true;
  queue_header_frame(id, headers, /*end_stream=*/true, priority);
  tree_.add(id, priority.value_or(PrioritySpec{}));
  signal_write();
  return id;
}

void Connection::submit_priority(std::uint32_t stream,
                                 const PrioritySpec& spec) {
  queue_control(Frame{PriorityFrame{stream, spec}});
  signal_write();
}

void Connection::submit_extension(const ExtensionFrame& frame) {
  start();
  queue_control(Frame{frame});
  signal_write();
}

void Connection::submit_goaway(ErrorCode error, const std::string& debug_data) {
  if (errored_) return;
  start();
  queue_control(Frame{GoawayFrame{max_peer_stream_, error, debug_data}});
  signal_write();
}

void Connection::submit_rst(std::uint32_t stream, ErrorCode error) {
  forget(stream);
  queue_control(Frame{RstStreamFrame{stream, error}});
  unschedule(stream);
  signal_write();
}

std::uint32_t Connection::submit_push_promise(
    std::uint32_t parent, const http::HeaderBlock& request_headers) {
  assert(config_.role == Role::kServer);
  if (!peer_enable_push_) return 0;
  auto pit = streams_.find(parent);
  if (pit == streams_.end() || pit->second.state == StreamState::kClosed) {
    return 0;
  }
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  Stream& s = ensure_stream(id);
  s.state = StreamState::kReservedLocal;
  s.remote_done = true;  // the peer never sends on a pushed stream
  queue_header_frame(parent, request_headers, /*end_stream=*/false,
                     std::nullopt, /*promised_id=*/id);
  // h2o: pushed streams depend on the associated (parent) stream.
  tree_.add(id, PrioritySpec{parent, 16, false});
  signal_write();
  return id;
}

void Connection::submit_response(std::uint32_t stream,
                                 const http::HeaderBlock& headers,
                                 Body body) {
  assert(config_.role == Role::kServer);
  if (!streams_.contains(stream) && was_opened(stream)) {
    return;  // closed, e.g. the client reset the push
  }
  Stream& s = ensure_stream(stream);
  if (s.state == StreamState::kReservedLocal) {
    s.state = StreamState::kHalfClosedRemote;
  }
  const bool empty_body = !body || body->empty();
  queue_header_frame(stream, headers, /*end_stream=*/empty_body,
                     std::nullopt);
  if (empty_body) {
    s.local_done = true;
    release_hold(stream);
    maybe_close(stream);
  } else {
    s.body = std::move(body);
    s.body_offset = 0;
    s.body_pending = true;
    refresh(stream, s);
  }
  signal_write();
}

void Connection::interleave(std::uint32_t parent, std::size_t offset,
                            std::vector<std::uint32_t> critical) {
  // A critical stream already done (e.g. a tiny push fully written before
  // the caller finished its policy) must not wedge the parent.
  std::erase_if(critical, [this](std::uint32_t id) {
    const auto it = streams_.find(id);
    return it == streams_.end() || it->second.local_done ||
           it->second.state == StreamState::kClosed;
  });
  const std::uint32_t old_parent = hold_parent_;
  hold_parent_ = critical.empty() ? 0 : parent;
  hold_offset_ = offset;
  hold_critical_ = std::move(critical);
  hold_paused_ = false;
  refresh(old_parent);
  refresh(hold_parent_);
}

void Connection::release_hold(std::uint32_t id) {
  if (hold_parent_ == 0) return;
  std::erase(hold_critical_, id);
  if (!hold_critical_.empty()) return;
  if (trace_ && hold_paused_) {
    trace_->instant(trace_track_, "server", "interleave.resume",
                    {{"parent", hold_parent_}});
  }
  const std::uint32_t parent = hold_parent_;
  hold_parent_ = 0;
  refresh(parent);
}

void Connection::unschedule(std::uint32_t id) {
  tree_.remove(id);
  release_hold(id);  // a cancelled push must not wedge the parent
}

bool Connection::send_quiescent() const {
  return !control_pending() && pending_streams_ == 0;
}

bool Connection::want_write() const {
  return control_pending() || (send_window_ > 0 && sendable_streams_ != 0);
}

std::size_t Connection::append_next_data_frame(
    std::vector<std::uint8_t>& out) {
  // The tree holds only the streams with sendable data; the connection
  // window gates them all.
  if (send_window_ <= 0) return 0;
  const std::uint32_t id = tree_.pick();
  if (id == 0) return 0;
  if (trace_ && id != last_data_stream_) {
    // The tree moved to a different stream: the switch points are
    // what make interleaving visible in a trace (paper Fig. 5a).
    trace_->instant(trace_track_, "h2", "data.switch",
                    {{"from", last_data_stream_}, {"to", id}});
    last_data_stream_ = id;
  }
  Stream& s = streams_.at(id);
  const std::size_t remaining = s.body->size() - s.body_offset;
  std::size_t n = std::min<std::size_t>(remaining, kDefaultMaxFrameSize);
  n = std::min<std::size_t>(n, static_cast<std::size_t>(s.send_window));
  n = std::min<std::size_t>(n, static_cast<std::size_t>(send_window_));
  // A held parent stops exactly at the switch point.
  if (id == hold_parent_) n = std::min(n, hold_offset_ - s.body_offset);
  // A ready stream guarantees n > 0 for every setting this connection can
  // reach, but an unvalidated limit reaching 0 here would emit empty
  // DATA frames forever (the NDEBUG builds used to rely on a compiled-out
  // assert). Stall instead of spinning.
  assert(n > 0);
  if (n == 0) return 0;
  const bool end_stream = (n == remaining);
  const auto* base =
      reinterpret_cast<const std::uint8_t*>(s.body->data()) + s.body_offset;
  // Serialized straight into the output buffer: no DataFrame temp, no
  // per-frame payload copy + re-copy.
  append_data_frame(out, id, end_stream, {base, n});
  s.body_offset += n;
  s.send_window -= static_cast<std::int64_t>(n);
  send_window_ -= static_cast<std::int64_t>(n);
  total_data_sent_ += n;
  if (trace_ && id == hold_parent_ && s.body_offset >= hold_offset_) {
    hold_paused_ = true;
    trace_->instant(trace_track_, "server", "interleave.pause",
                    {{"parent", id},
                     {"parent_sent", s.body_offset},
                     {"pending_critical", hold_critical_.size()}});
  }
  if (trace_) {
    trace_->instant(trace_track_, "h2", "send DATA",
                    {{"stream", id},
                     {"bytes", n},
                     {"end_stream", end_stream ? 1 : 0}});
    ++trace_->summary().frames_sent["DATA"];
    trace_->counter(trace_track_, "h2", "conn_send_window",
                    static_cast<double>(send_window_));
  }
  if (end_stream) {
    s.body_pending = false;
    s.local_done = true;
    s.body.reset();
  }
  refresh(id, s);
  if (end_stream) {
    release_hold(id);
    maybe_close(id);
  }
  return n;
}

std::vector<std::uint8_t> Connection::produce(std::size_t max_bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(max_bytes);
  produce(out, max_bytes);
  return out;
}

std::size_t Connection::produce(std::vector<std::uint8_t>& out,
                                std::size_t max_bytes) {
  const std::size_t start = out.size();
  // 1. Control frames (SETTINGS, HEADERS, PUSH_PROMISE, RST, WINDOW_UPDATE):
  //    not flow controlled, sent ahead of DATA like real stacks do. Whole
  //    frames until max_bytes is reached.
  const std::size_t begin = control_sent();
  std::size_t end = begin;
  while (control_pending() && end - begin < max_bytes) {
    end = control_ends_[control_head_++];
  }
  out.insert(out.end(),
             control_bytes_.begin() + static_cast<std::ptrdiff_t>(begin),
             control_bytes_.begin() + static_cast<std::ptrdiff_t>(end));
  control_consumed();
  // 2. Scheduler-chosen DATA frames, each as large as the windows and
  //    kDefaultMaxFrameSize allow.
  while (out.size() - start < max_bytes) {
    if (append_next_data_frame(out) == 0) break;
  }
  return out.size() - start;
}

void Connection::maybe_close(std::uint32_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  Stream& s = it->second;
  if (s.local_done && s.remote_done && s.state != StreamState::kClosed) {
    s.state = StreamState::kClosed;
    unschedule(id);
    if (callbacks_.on_stream_closed) callbacks_.on_stream_closed(id);
    forget(id);
  }
}

void Connection::receive(std::span<const std::uint8_t> bytes) {
  if (errored_) return;
  // Receiving before start() (e.g. the peer's SETTINGS racing the transport
  // handshake) must not let an ACK jump ahead of our preface/SETTINGS.
  start();
  // The server must strip the 24-byte client preface first.
  if (preface_pending_) {
    preface_buf_.insert(preface_buf_.end(), bytes.begin(), bytes.end());
    if (preface_buf_.size() < 24) return;
    const auto expected = client_preface();
    if (!std::equal(expected.begin(), expected.end(), preface_buf_.begin())) {
      preface_buf_.clear();
      connection_error(ErrorCode::kProtocolError, "bad client preface");
      return;
    }
    preface_pending_ = false;
    std::vector<std::uint8_t> rest(preface_buf_.begin() + 24,
                                   preface_buf_.end());
    preface_buf_.clear();
    if (!rest.empty()) receive(rest);
    return;
  }
  // Frames are handled as they are parsed, in wire order: a malformed
  // frame is reported only after the frames before it took effect (RFC
  // 7540 §5.4.1), and handling stops at the first connection error.
  struct Dispatch final : FrameParser::Handler {
    Connection& c;
    explicit Dispatch(Connection& conn) : c(conn) {}
    bool on_data(const DataView& frame) override {
      c.handle_data(frame);
      return !c.errored_;
    }
    bool on_frame(Frame&& frame) override {
      c.handle_frame(std::move(frame));
      return !c.errored_;
    }
  } dispatch(*this);
  // The parser is mid-chunk while a frame is handled; a callback that fed
  // this connection again would corrupt it.
  assert(!receiving_ && "Connection::receive re-entered from a callback");
  receiving_ = true;
  const auto error = parser_.parse(bytes, dispatch);
  receiving_ = false;
  if (error) connection_error(error->code, error->message);
}

void Connection::apply_remote_settings(const SettingsFrame& frame) {
  for (const auto& [id, value] : frame.settings) {
    switch (id) {
      case SettingsId::kHeaderTableSize:
        // Our encoder's table never outgrows our own decoder's: a peer
        // announcing a huge table must not make us keep every header.
        encoder_.set_table_size(
            std::min<std::size_t>(value, config_.header_table_size));
        break;
      case SettingsId::kEnablePush:
        if (value > 1) {
          connection_error(ErrorCode::kProtocolError,
                           "SETTINGS_ENABLE_PUSH not 0/1");
          return;
        }
        peer_enable_push_ = value != 0;
        break;
      case SettingsId::kInitialWindowSize: {
        if (value > kMaxWindow) {
          // §6.5.2: values above 2^31-1 are a FLOW_CONTROL_ERROR.
          connection_error(ErrorCode::kFlowControlError,
                           "SETTINGS_INITIAL_WINDOW_SIZE above 2^31-1");
          return;
        }
        // Adjust all open streams by the delta (RFC 7540 §6.9.2). A delta
        // that lifts any stream window above 2^31-1 is a connection
        // FLOW_CONTROL_ERROR (RFC 9113 §6.9.2).
        const std::int64_t delta =
            static_cast<std::int64_t>(value) -
            static_cast<std::int64_t>(peer_initial_window_);
        for (const auto& [sid, s] : streams_) {
          if (s.send_window + delta > kMaxWindow) {
            connection_error(ErrorCode::kFlowControlError,
                             "SETTINGS_INITIAL_WINDOW_SIZE overflows a "
                             "stream window");
            return;
          }
        }
        peer_initial_window_ = value;
        for (auto& [sid, s] : streams_) {
          s.send_window += delta;
          refresh(sid, s);
        }
        break;
      }
      case SettingsId::kMaxFrameSize:
        // §6.5.2: outside [2^14, 2^24-1] is a PROTOCOL_ERROR. A valid
        // value is not kept: our frames stay within kDefaultMaxFrameSize,
        // which every peer must accept (RFC 9113 §4.2), so a peer's larger
        // limit never grows them past the live daemon's write watermark.
        if (value < kDefaultMaxFrameSize || value > 0xffffff) {
          connection_error(ErrorCode::kProtocolError,
                           "SETTINGS_MAX_FRAME_SIZE out of range");
          return;
        }
        break;
      case SettingsId::kMaxConcurrentStreams:
      case SettingsId::kMaxHeaderListSize:
        break;  // tracked but not enforced in simulation
    }
  }
  queue_control(Frame{SettingsFrame{.ack = true, .settings = {}}});
  if (callbacks_.on_remote_settings) callbacks_.on_remote_settings();
  signal_write();
}

void Connection::handle_data(const DataView& f) {
  if (trace_) {
    trace_->instant(trace_track_, "h2", "recv DATA",
                    {{"stream", f.stream_id},
                     {"bytes", static_cast<std::int64_t>(f.data.size())}});
    ++trace_->summary().frames_received["DATA"];
  }
  auto sit = streams_.find(f.stream_id);
  if (sit == streams_.end() && !was_opened(f.stream_id)) {
    connection_error(ErrorCode::kProtocolError, "DATA on idle stream");
    return;
  }
  // RFC 7540 §6.9: the whole frame payload, including padding, counts
  // against flow control — even for streams we have already reset or
  // half-closed.
  const auto n = static_cast<std::int64_t>(f.data.size() + f.padding_bytes);
  recv_window_ -= n;
  if (recv_window_ < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "connection flow control violated by peer");
    return;
  }
  if (sit == streams_.end()) {
    // Closed stream, e.g. a post-RST straggler: connection-level
    // accounting only (§5.1).
    recv_unacked_ += static_cast<std::uint64_t>(n);
    return;
  }
  Stream& s = sit->second;
  if (s.remote_done) {
    // §5.1 half-closed (remote): DATA is a STREAM_CLOSED error.
    submit_rst(f.stream_id, ErrorCode::kStreamClosed);
    return;
  }
  s.recv_window -= n;
  if (s.recv_window < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "stream flow control violated by peer");
    return;
  }
  // Application consumes immediately; replenish at half-window.
  s.recv_unacked += f.data.size() + f.padding_bytes;
  recv_unacked_ += f.data.size() + f.padding_bytes;
  if (!f.end_stream && s.recv_unacked > config_.initial_window / 2) {
    queue_control(Frame{WindowUpdateFrame{
        f.stream_id, static_cast<std::uint32_t>(s.recv_unacked)}});
    s.recv_window += static_cast<std::int64_t>(s.recv_unacked);
    s.recv_unacked = 0;
  }
  const std::uint64_t conn_threshold =
      (static_cast<std::uint64_t>(kDefaultInitialWindow) +
       config_.connection_window_bonus) / 2;
  if (recv_unacked_ > conn_threshold) {
    queue_control(Frame{WindowUpdateFrame{
        0, static_cast<std::uint32_t>(recv_unacked_)}});
    recv_window_ += static_cast<std::int64_t>(recv_unacked_);
    recv_unacked_ = 0;
  }
  if (f.end_stream) {
    s.remote_done = true;
    if (s.state == StreamState::kOpen) {
      s.state = StreamState::kHalfClosedRemote;
    }
  }
  if (callbacks_.on_data) {
    callbacks_.on_data(f.stream_id, f.data, f.end_stream);
  }
  maybe_close(f.stream_id);
  signal_write();
}

void Connection::handle_frame(Frame frame) {
  if (trace_) {
    const FrameTraceInfo info = frame_trace_info(frame);
    const std::string name(info.name);
    trace_->instant(trace_track_, "h2", "recv " + name,
                    {{"stream", info.stream}, {"bytes", info.bytes}});
    ++trace_->summary().frames_received[name];
  }
  std::visit(
      [this](auto&& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, SettingsFrame>) {
          if (!f.ack) apply_remote_settings(f);
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          // Decode before any stream-level checks: the dynamic table must
          // stay synchronized even for blocks on doomed streams (§4.3).
          auto block = decoder_.decode(f.header_block);
          if (!block) {
            connection_error(ErrorCode::kCompressionError,
                             "hpack: " + block.error());
            return;
          }
          if (!streams_.contains(f.stream_id)) {
            if (was_opened(f.stream_id)) {
              return;  // late HEADERS on a closed stream: drop, keep HPACK
            }
            if (config_.role == Role::kClient) {
              // Every legitimate response stream exists at the client (we
              // opened it or the peer promised it).
              connection_error(ErrorCode::kProtocolError,
                               "HEADERS on idle stream");
              return;
            }
            if (f.stream_id % 2 == 0) {
              connection_error(ErrorCode::kProtocolError,
                               "client opened even stream");
              return;
            }
            if (f.stream_id <= max_peer_stream_) {
              connection_error(ErrorCode::kProtocolError,
                               "stream id not monotonically increasing");
              return;
            }
            note_peer_stream(f.stream_id);
          }
          Stream& s = ensure_stream(f.stream_id);
          if (s.remote_done) {
            // §5.1 half-closed (remote): further HEADERS are a stream
            // error of type STREAM_CLOSED.
            submit_rst(f.stream_id, ErrorCode::kStreamClosed);
            return;
          }
          if (s.state == StreamState::kIdle) s.state = StreamState::kOpen;
          if (s.state == StreamState::kReservedRemote) {
            s.state = StreamState::kHalfClosedLocal;
          }
          if (f.priority) {
            tree_.reprioritize(f.stream_id, *f.priority);
          } else if (config_.role == Role::kServer) {
            tree_.add(f.stream_id, PrioritySpec{});
          }
          if (f.end_stream) {
            s.remote_done = true;
            if (s.state == StreamState::kOpen) {
              s.state = StreamState::kHalfClosedRemote;
            }
          }
          if (callbacks_.on_headers) {
            callbacks_.on_headers(f.stream_id, std::move(*block),
                                  f.end_stream);
          }
          maybe_close(f.stream_id);
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          if (config_.role != Role::kClient) {
            connection_error(ErrorCode::kProtocolError,
                             "PUSH_PROMISE from client");
            return;
          }
          if (!config_.enable_push) {
            connection_error(ErrorCode::kProtocolError,
                             "push disabled but PUSH_PROMISE received");
            return;
          }
          auto block = decoder_.decode(f.header_block);
          if (!block) {
            connection_error(ErrorCode::kCompressionError,
                             "hpack: " + block.error());
            return;
          }
          if (!streams_.contains(f.stream_id) && !was_opened(f.stream_id)) {
            connection_error(ErrorCode::kProtocolError,
                             "PUSH_PROMISE on idle stream");
            return;
          }
          if (f.promised_id == 0 || f.promised_id % 2 != 0 ||
              f.promised_id <= max_peer_stream_) {
            connection_error(ErrorCode::kProtocolError,
                             "promised stream id invalid");
            return;
          }
          note_peer_stream(f.promised_id);
          Stream& s = ensure_stream(f.promised_id);
          s.state = StreamState::kReservedRemote;
          s.local_done = true;  // we never send on a pushed stream
          if (callbacks_.on_push_promise) {
            callbacks_.on_push_promise(f.stream_id, f.promised_id,
                                       std::move(*block));
          }
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          if (f.priority.depends_on == f.stream_id) {
            // §5.3.1: a stream cannot depend on itself — stream error.
            if (streams_.contains(f.stream_id) || was_opened(f.stream_id)) {
              submit_rst(f.stream_id, ErrorCode::kProtocolError);
            }
            return;
          }
          tree_.reprioritize(f.stream_id, f.priority);
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          if (!streams_.contains(f.stream_id) && !was_opened(f.stream_id)) {
            connection_error(ErrorCode::kProtocolError,
                             "RST_STREAM on idle stream");
            return;
          }
          forget(f.stream_id);
          unschedule(f.stream_id);
          if (callbacks_.on_rst) callbacks_.on_rst(f.stream_id, f.error);
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          if (f.stream_id == 0) {
            if (send_window_ + f.increment > kMaxWindow) {
              connection_error(ErrorCode::kFlowControlError,
                               "connection window overflow");
              return;
            }
            send_window_ += f.increment;
            if (trace_) {
              trace_->counter(trace_track_, "h2", "conn_send_window",
                              static_cast<double>(send_window_));
            }
          } else {
            auto sit = streams_.find(f.stream_id);
            if (sit == streams_.end()) {
              if (!was_opened(f.stream_id)) {
                connection_error(ErrorCode::kProtocolError,
                                 "WINDOW_UPDATE on idle stream");
                return;
              }
              // Closed stream: the peer may still be crediting it (§6.9).
            } else if (sit->second.send_window + f.increment > kMaxWindow) {
              submit_rst(f.stream_id, ErrorCode::kFlowControlError);
              return;
            } else {
              sit->second.send_window += f.increment;
              refresh(f.stream_id, sit->second);
            }
          }
          signal_write();
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          if (!f.ack) {
            queue_control(Frame{PingFrame{true, f.opaque}});
            signal_write();
          }
        } else if constexpr (std::is_same_v<T, ExtensionFrame>) {
          if (callbacks_.on_extension_frame) callbacks_.on_extension_frame(f);
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          // Remembered for diagnostics; page loads do not reuse dying
          // connections in our experiments.
          last_error_ = "GOAWAY: " + f.debug_data;
          last_error_code_ = f.error;
        }
      },
      frame);
}

std::optional<std::string> Connection::check_invariants() const {
  if (recv_window_ < 0) return "connection recv window negative";
  if (send_window_ > kMaxWindow) return "connection send window above 2^31-1";
  std::size_t pending = 0;
  std::size_t sendable = 0;
  std::size_t ready = 0;
  for (const auto& [id, s] : streams_) {
    const std::string tag = " (stream " + std::to_string(id) + ")";
    if (s.recv_window < 0) return "stream recv window negative" + tag;
    if (s.send_window > kMaxWindow) {
      return "stream send window above 2^31-1" + tag;
    }
    if (s.body && s.body_offset > s.body->size()) {
      return "body cursor past end of body" + tag;
    }
    if (s.body_pending && !s.body) return "pending body missing" + tag;
    if (s.state == StreamState::kClosed) {
      return "closed stream still in the table" + tag;
    }
    // Readiness recomputed from scratch, against what refresh() counted.
    const bool can_send = s.body_pending && s.send_window > 0;
    const bool can_pick =
        can_send && (id != hold_parent_ || s.body_offset < hold_offset_);
    pending += s.body_pending ? 1 : 0;
    sendable += can_send ? 1 : 0;
    ready += can_pick ? 1 : 0;
    if (tree_.is_ready(id) != can_pick) {
      return std::string(can_pick ? "sendable stream not ready in the tree"
                                  : "tree marks a stream that cannot send") +
             tag;
    }
  }
  if (pending != pending_streams_) return "pending-body count out of step";
  if (sendable != sendable_streams_) return "sendable-stream count out of step";
  if (ready != tree_.ready_count()) {
    return "tree marks a stream that is not in the table";
  }
  return tree_.check_ready_counts();
}

StreamState Connection::stream_state(std::uint32_t stream) const {
  auto it = streams_.find(stream);
  if (it != streams_.end()) return it->second.state;
  return was_opened(stream) ? StreamState::kClosed : StreamState::kIdle;
}

std::uint64_t Connection::data_bytes_sent(std::uint32_t stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.body_offset;
}

}  // namespace h2push::h2
