#include "h2/frame.h"

#include <algorithm>
#include <cstring>

namespace h2push::h2 {
namespace {

// Serialization writes through raw pointers into a region grown once per
// frame: reserve-and-write instead of push_back per byte.

std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t pos = out.size();
  out.resize(pos + n);
  return out.data() + pos;
}

std::uint8_t* put_u16(std::uint8_t* p, std::uint16_t v) {
  *p++ = static_cast<std::uint8_t>(v >> 8);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  *p++ = static_cast<std::uint8_t>(v >> 24);
  *p++ = static_cast<std::uint8_t>(v >> 16);
  *p++ = static_cast<std::uint8_t>(v >> 8);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t pos) {
  return get_u32(in.data() + pos);
}

/// Payload length from a complete frame header.
std::size_t payload_length(const std::uint8_t* header) {
  return (static_cast<std::size_t>(header[0]) << 16) |
         (static_cast<std::size_t>(header[1]) << 8) | header[2];
}

std::uint8_t* put_frame_header(std::uint8_t* p, std::size_t length,
                               FrameType type, std::uint8_t flags,
                               std::uint32_t stream_id) {
  *p++ = static_cast<std::uint8_t>(length >> 16);
  *p++ = static_cast<std::uint8_t>(length >> 8);
  *p++ = static_cast<std::uint8_t>(length);
  *p++ = static_cast<std::uint8_t>(type);
  *p++ = flags;
  return put_u32(p, stream_id & 0x7fffffff);
}

std::uint8_t* put_bytes(std::uint8_t* p, const std::uint8_t* src,
                        std::size_t n) {
  if (n > 0) std::memcpy(p, src, n);
  return p + n;
}

std::uint8_t* put_priority(std::uint8_t* p, const PrioritySpec& prio) {
  p = put_u32(p, (prio.exclusive ? 0x80000000u : 0u) |
                     (prio.depends_on & 0x7fffffff));
  *p++ = static_cast<std::uint8_t>((prio.weight == 0 ? 16 : prio.weight) - 1);
  return p;
}

util::Unexpected<ParseError> parse_error(ErrorCode code, std::string message) {
  return util::make_unexpected(ParseError{code, std::move(message)});
}

/// Wire size of a HEADERS/PUSH_PROMISE carrying `block` bytes whose first
/// frame has `first_cap` payload capacity, plus CONTINUATION overhead.
std::size_t header_block_wire_size(std::size_t block, std::size_t first_cap) {
  const std::size_t rest = block > first_cap ? block - first_cap : 0;
  const std::size_t continuations =
      (rest + kDefaultMaxFrameSize - 1) / kDefaultMaxFrameSize;
  return kFrameHeaderSize * (1 + continuations) + block;
}

/// Write `rest` of a header block as CONTINUATION frames of at most
/// kDefaultMaxFrameSize, the last one carrying END_HEADERS.
void put_continuations(std::uint8_t* p, std::uint32_t stream_id,
                       std::span<const std::uint8_t> rest) {
  while (!rest.empty()) {
    const std::size_t n =
        std::min<std::size_t>(kDefaultMaxFrameSize, rest.size());
    p = put_frame_header(p, n, FrameType::kContinuation,
                         n == rest.size() ? kFlagEndHeaders : 0, stream_id);
    p = put_bytes(p, rest.data(), n);
    rest = rest.subspan(n);
  }
}

PrioritySpec get_priority(std::span<const std::uint8_t> in, std::size_t pos) {
  PrioritySpec p;
  const std::uint32_t dep = get_u32(in, pos);
  p.exclusive = (dep & 0x80000000u) != 0;
  p.depends_on = dep & 0x7fffffff;
  p.weight = static_cast<std::uint16_t>(in[pos + 4] + 1);  // wire value + 1
  return p;
}

}  // namespace

std::string_view to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoaway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
  }
  return "UNKNOWN";
}

std::span<const std::uint8_t> client_preface() {
  static const std::uint8_t kPreface[] =
      "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";
  return {kPreface, 24};
}

std::size_t serialized_size(const Frame& frame) {
  return std::visit(
      [&](const auto& f) -> std::size_t {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          return kFrameHeaderSize + f.data.size();
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          const std::size_t prio_len = f.priority ? 5 : 0;
          return prio_len +
                 header_block_wire_size(f.header_block.size(),
                                        kDefaultMaxFrameSize - prio_len);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          return kFrameHeaderSize + 5;
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          return kFrameHeaderSize + 4;
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          return kFrameHeaderSize + (f.ack ? 0 : f.settings.size() * 6);
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          return 4 + header_block_wire_size(f.header_block.size(),
                                            kDefaultMaxFrameSize - 4);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          return kFrameHeaderSize + 8;
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          return kFrameHeaderSize + 8 + f.debug_data.size();
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          return kFrameHeaderSize + 4;
        } else {
          static_assert(std::is_same_v<T, ExtensionFrame>);
          return kFrameHeaderSize + f.payload.size();
        }
      },
      frame);
}

std::array<std::uint8_t, kFrameHeaderSize> data_frame_header(
    std::uint32_t stream_id, bool end_stream, std::size_t length) {
  std::array<std::uint8_t, kFrameHeaderSize> header;
  put_frame_header(header.data(), length, FrameType::kData,
                   end_stream ? kFlagEndStream : 0, stream_id);
  return header;
}

void append_data_frame(std::vector<std::uint8_t>& out,
                       std::uint32_t stream_id, bool end_stream,
                       std::span<const std::uint8_t> payload) {
  // The payload is inserted, not grown and copied over, so its bytes are
  // written once instead of zero-filled first.
  const auto header = data_frame_header(stream_id, end_stream, payload.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_headers_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t stream_id, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::span<const std::uint8_t> header_block) {
  const std::size_t prio_len = priority ? 5 : 0;
  const std::size_t first_cap = kDefaultMaxFrameSize - prio_len;
  const bool fits = header_block.size() <= first_cap;
  const std::size_t first_len = fits ? header_block.size() : first_cap;
  std::uint8_t flags = 0;
  if (end_stream) flags |= kFlagEndStream;
  if (priority) flags |= kFlagPriority;
  if (fits) flags |= kFlagEndHeaders;
  std::uint8_t* p =
      grow(out, prio_len + header_block_wire_size(header_block.size(),
                                                  first_cap));
  p = put_frame_header(p, first_len + prio_len, FrameType::kHeaders, flags,
                       stream_id);
  if (priority) p = put_priority(p, *priority);
  p = put_bytes(p, header_block.data(), first_len);
  put_continuations(p, stream_id, header_block.subspan(first_len));
}

void append_push_promise_frame(std::vector<std::uint8_t>& out,
                               std::uint32_t stream_id,
                               std::uint32_t promised_id,
                               std::span<const std::uint8_t> header_block) {
  const std::size_t first_cap = kDefaultMaxFrameSize - 4;
  const bool fits = header_block.size() <= first_cap;
  const std::size_t first_len = fits ? header_block.size() : first_cap;
  std::uint8_t* p =
      grow(out, 4 + header_block_wire_size(header_block.size(), first_cap));
  p = put_frame_header(p, first_len + 4, FrameType::kPushPromise,
                       fits ? kFlagEndHeaders : 0, stream_id);
  p = put_u32(p, promised_id & 0x7fffffff);
  p = put_bytes(p, header_block.data(), first_len);
  put_continuations(p, stream_id, header_block.subspan(first_len));
}

void serialize_into(const Frame& frame, std::vector<std::uint8_t>& out) {
  // Geometric growth: `out` may be a queue that frames are appended to.
  const std::size_t needed = out.size() + serialized_size(frame);
  if (needed > out.capacity()) {
    out.reserve(std::max(needed, 2 * out.capacity()));
  }
  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          append_data_frame(out, f.stream_id, f.end_stream, f.data);
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          append_headers_frame(out, f.stream_id, f.end_stream, f.priority,
                               f.header_block);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          std::uint8_t* p = grow(out, kFrameHeaderSize + 5);
          p = put_frame_header(p, 5, FrameType::kPriority, 0, f.stream_id);
          put_priority(p, f.priority);
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          std::uint8_t* p = grow(out, kFrameHeaderSize + 4);
          p = put_frame_header(p, 4, FrameType::kRstStream, 0, f.stream_id);
          put_u32(p, static_cast<std::uint32_t>(f.error));
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          const std::size_t len = f.ack ? 0 : f.settings.size() * 6;
          std::uint8_t* p = grow(out, kFrameHeaderSize + len);
          p = put_frame_header(p, len, FrameType::kSettings,
                               f.ack ? kFlagAck : 0, 0);
          if (!f.ack) {
            for (const auto& [id, value] : f.settings) {
              p = put_u16(p, static_cast<std::uint16_t>(id));
              p = put_u32(p, value);
            }
          }
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          append_push_promise_frame(out, f.stream_id, f.promised_id,
                                    f.header_block);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          std::uint8_t* p = grow(out, kFrameHeaderSize + 8);
          p = put_frame_header(p, 8, FrameType::kPing, f.ack ? kFlagAck : 0,
                               0);
          for (int i = 7; i >= 0; --i) {
            *p++ = static_cast<std::uint8_t>(f.opaque >> (8 * i));
          }
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          std::uint8_t* p =
              grow(out, kFrameHeaderSize + 8 + f.debug_data.size());
          p = put_frame_header(p, 8 + f.debug_data.size(), FrameType::kGoaway,
                               0, 0);
          p = put_u32(p, f.last_stream_id & 0x7fffffff);
          p = put_u32(p, static_cast<std::uint32_t>(f.error));
          put_bytes(p, reinterpret_cast<const std::uint8_t*>(
                           f.debug_data.data()),
                    f.debug_data.size());
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          std::uint8_t* p = grow(out, kFrameHeaderSize + 4);
          p = put_frame_header(p, 4, FrameType::kWindowUpdate, 0,
                               f.stream_id);
          put_u32(p, f.increment & 0x7fffffff);
        } else if constexpr (std::is_same_v<T, ExtensionFrame>) {
          std::uint8_t* p = grow(out, kFrameHeaderSize + f.payload.size());
          p = put_frame_header(p, f.payload.size(),
                               static_cast<FrameType>(f.type), f.flags,
                               f.stream_id);
          put_bytes(p, f.payload.data(), f.payload.size());
        }
      },
      frame);
}

std::vector<std::uint8_t> serialize(const Frame& frame) {
  std::vector<std::uint8_t> out;
  serialize_into(frame, out);
  return out;
}

util::Expected<bool, ParseError> FrameParser::dispatch(
    const std::uint8_t* header, std::span<const std::uint8_t> payload,
    Handler& handler) {
  const std::uint8_t type = header[3];
  const std::uint8_t flags = header[4];
  const std::uint32_t stream_id = get_u32(header + 5) & 0x7fffffff;
  const auto ft = static_cast<FrameType>(type);

  // §6.10: once a HEADERS/PUSH_PROMISE without END_HEADERS is on the wire,
  // only CONTINUATION frames for that stream may follow.
  if (expecting_continuation_ && ft != FrameType::kContinuation) {
    return parse_error(ErrorCode::kProtocolError, "expected CONTINUATION");
  }

  switch (ft) {
    case FrameType::kData: {
      if (stream_id == 0) return parse_error(ErrorCode::kProtocolError, "DATA on stream 0");
      DataView f;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "DATA: bad pad");
        }
        pad = payload[0];
        pos = 1;
        if (pad + pos > payload.size()) {
          return parse_error(ErrorCode::kProtocolError, "DATA: pad beyond frame");
        }
      }
      f.data = payload.subspan(pos, payload.size() - pos - pad);
      f.padding_bytes = pos + pad;  // Pad-Length octet + padding
      return handler.on_data(f);
    }
    case FrameType::kHeaders: {
      if (stream_id == 0) return parse_error(ErrorCode::kProtocolError, "HEADERS on stream 0");
      HeaderBlockView f;
      f.type = FrameType::kHeaders;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "HEADERS: bad pad");
        }
        pad = payload[0];
        pos = 1;
      }
      if (flags & kFlagPriority) {
        if (pos + 5 > payload.size()) {
          return parse_error(ErrorCode::kFrameSizeError,
                             "HEADERS: truncated priority");
        }
        f.priority = get_priority(payload, pos);
        pos += 5;
      }
      if (pad + pos > payload.size()) {
        return parse_error(ErrorCode::kProtocolError, "HEADERS: pad beyond frame");
      }
      f.header_block = payload.subspan(pos, payload.size() - pos - pad);
      return header_block(f, flags, handler);
    }
    case FrameType::kPriority: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "PRIORITY on stream 0");
      }
      if (payload.size() != 5) {
        return parse_error(ErrorCode::kFrameSizeError, "PRIORITY: bad length");
      }
      PriorityFrame f;
      f.stream_id = stream_id;
      f.priority = get_priority(payload, 0);
      return handler.on_frame(Frame(std::move(f)));
    }
    case FrameType::kRstStream: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "RST_STREAM on stream 0");
      }
      if (payload.size() != 4) {
        return parse_error(ErrorCode::kFrameSizeError, "RST_STREAM: bad length");
      }
      RstStreamFrame f;
      f.stream_id = stream_id;
      f.error = static_cast<ErrorCode>(get_u32(payload, 0));
      return handler.on_frame(Frame(std::move(f)));
    }
    case FrameType::kSettings: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "SETTINGS on a stream");
      }
      const bool ack = flags & kFlagAck;
      if (ack && !payload.empty()) {
        return parse_error(ErrorCode::kFrameSizeError,
                           "SETTINGS ack with payload");
      }
      if (payload.size() % 6 != 0) {
        return parse_error(ErrorCode::kFrameSizeError, "SETTINGS: bad length");
      }
      return handler.on_settings(SettingsView{ack, payload});
    }
    case FrameType::kPushPromise: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "PUSH_PROMISE on stream 0");
      }
      HeaderBlockView f;
      f.type = FrameType::kPushPromise;
      f.stream_id = stream_id;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "PUSH_PROMISE: bad pad");
        }
        pad = payload[0];
        pos = 1;
      }
      if (pos + 4 + pad > payload.size()) {
        return parse_error(ErrorCode::kFrameSizeError, "PUSH_PROMISE: truncated");
      }
      f.promised_id = get_u32(payload, pos) & 0x7fffffff;
      f.header_block = payload.subspan(pos + 4, payload.size() - pos - 4 - pad);
      return header_block(f, flags, handler);
    }
    case FrameType::kPing: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "PING on a stream");
      }
      if (payload.size() != 8) {
        return parse_error(ErrorCode::kFrameSizeError, "PING: length");
      }
      PingFrame f;
      f.ack = flags & kFlagAck;
      f.opaque = 0;
      for (int i = 0; i < 8; ++i) f.opaque = (f.opaque << 8) | payload[i];
      return handler.on_frame(Frame(std::move(f)));
    }
    case FrameType::kGoaway: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "GOAWAY on a stream");
      }
      if (payload.size() < 8) {
        return parse_error(ErrorCode::kFrameSizeError, "GOAWAY: length");
      }
      GoawayFrame f;
      f.last_stream_id = get_u32(payload, 0) & 0x7fffffff;
      f.error = static_cast<ErrorCode>(get_u32(payload, 4));
      f.debug_data.assign(payload.begin() + 8, payload.end());
      return handler.on_frame(Frame(std::move(f)));
    }
    case FrameType::kWindowUpdate: {
      if (payload.size() != 4) {
        return parse_error(ErrorCode::kFrameSizeError, "WINDOW_UPDATE: length");
      }
      WindowUpdateFrame f;
      f.stream_id = stream_id;
      f.increment = get_u32(payload, 0) & 0x7fffffff;
      if (f.increment == 0) {
        return parse_error(ErrorCode::kProtocolError,
                           "WINDOW_UPDATE: zero increment");
      }
      return handler.on_frame(Frame(std::move(f)));
    }
    case FrameType::kContinuation: {
      if (!expecting_continuation_) {
        return parse_error(ErrorCode::kProtocolError, "unexpected CONTINUATION");
      }
      if (stream_id != pending_.stream_id) {
        return parse_error(ErrorCode::kProtocolError, "CONTINUATION: wrong stream");
      }
      if (pending_block_.size() + payload.size() > kMaxHeaderBlock) {
        return parse_error(ErrorCode::kEnhanceYourCalm,
                           "header block exceeds reassembly cap");
      }
      pending_block_.insert(pending_block_.end(), payload.begin(),
                            payload.end());
      if (flags & kFlagEndHeaders) {
        expecting_continuation_ = false;
        HeaderBlockView f = pending_;
        f.header_block = pending_block_;
        return handler.on_header_block(f);
      }
      return true;  // the block continues
    }
  }
  // Unknown frame types are surfaced as extension frames; a connection
  // without a handler ignores them (RFC 7540 §4.1).
  ExtensionFrame f;
  f.type = type;
  f.flags = flags;
  f.stream_id = stream_id;
  f.payload.assign(payload.begin(), payload.end());
  return handler.on_frame(Frame(std::move(f)));
}

bool FrameParser::header_block(const HeaderBlockView& frame,
                               std::uint8_t flags, Handler& handler) {
  if (flags & kFlagEndHeaders) return handler.on_header_block(frame);
  // The block continues in CONTINUATION frames: reassemble it.
  pending_ = frame;
  pending_.header_block = {};
  pending_block_.assign(frame.header_block.begin(), frame.header_block.end());
  expecting_continuation_ = true;
  return true;
}

std::optional<ParseError> FrameParser::parse(
    std::span<const std::uint8_t> bytes, Handler& handler) {
  const util::Piece piece{bytes};
  return parse(std::span<const util::Piece>(&piece, 1), handler);
}

std::optional<ParseError> FrameParser::parse(
    std::span<const util::Piece> pieces, Handler& handler) {
  bool more = true;
  for (const util::Piece& piece : pieces) {
    if (error_ || !more) break;
    error_ = parse_piece(piece.bytes, piece.owner, handler, more);
  }
  return error_;
}

void FrameParser::unshare() {
  if (!shared_owner_) return;
  buffer_.insert(buffer_.end(), shared_begin_, shared_begin_ + shared_len_);
  shared_owner_.reset();
  shared_begin_ = nullptr;
  shared_len_ = 0;
}

std::optional<ParseError> FrameParser::parse_piece(
    std::span<const std::uint8_t> bytes, const util::SharedBytes* owner,
    Handler& handler, bool& more) {
  const auto too_long = [] {
    return ParseError{ErrorCode::kFrameSizeError,
                      "frame exceeds max frame size"};
  };
  // 1. Complete the frame the previous chunk cut off. An oversized frame
  //    is an error as soon as its header is complete.
  if (!buffer_.empty()) {
    if (buffer_.size() < kFrameHeaderSize) {
      const std::size_t n =
          std::min(kFrameHeaderSize - buffer_.size(), bytes.size());
      buffer_.insert(buffer_.end(), bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(n));
      bytes = bytes.subspan(n);
      if (buffer_.size() < kFrameHeaderSize) return std::nullopt;
    }
    const std::size_t length = payload_length(buffer_.data());
    if (length > kDefaultMaxFrameSize) return too_long();
    const std::size_t have =
        shared_owner_ ? shared_len_ : buffer_.size() - kFrameHeaderSize;
    const std::size_t n = std::min(length - have, bytes.size());
    if (n > 0) {
      const bool continues_shared =
          shared_owner_ && owner != nullptr &&
          owner->get() == shared_owner_.get() &&
          bytes.data() == shared_begin_ + shared_len_;
      const bool starts_shared =
          !shared_owner_ && have == 0 && owner != nullptr &&
          buffer_[3] == static_cast<std::uint8_t>(FrameType::kData);
      if (continues_shared) {
        shared_len_ += n;
      } else if (starts_shared) {
        shared_owner_ = *owner;
        shared_begin_ = bytes.data();
        shared_len_ = n;
      } else {
        unshare();
        buffer_.insert(buffer_.end(), bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(n));
      }
      bytes = bytes.subspan(n);
    }
    if (have + n < length) return std::nullopt;
    const std::span<const std::uint8_t> payload =
        shared_owner_
            ? std::span<const std::uint8_t>(shared_begin_, length)
            : std::span<const std::uint8_t>(buffer_).subspan(kFrameHeaderSize);
    auto handled = dispatch(buffer_.data(), payload, handler);
    // The view has been handed over; the bytes can go.
    buffer_.clear();
    shared_owner_.reset();
    shared_begin_ = nullptr;
    shared_len_ = 0;
    if (!handled) return handled.error();
    if (!*handled) {
      more = false;
      return std::nullopt;
    }
  }
  // 2. Whole frames straight from `bytes`.
  while (bytes.size() >= kFrameHeaderSize) {
    const std::size_t length = payload_length(bytes.data());
    if (length > kDefaultMaxFrameSize) return too_long();
    if (bytes.size() < kFrameHeaderSize + length) break;
    auto handled = dispatch(bytes.data(),
                            bytes.subspan(kFrameHeaderSize, length), handler);
    if (!handled) return handled.error();
    bytes = bytes.subspan(kFrameHeaderSize + length);
    if (!*handled) {
      more = false;
      return std::nullopt;
    }
  }
  // 3. Keep the cut-off tail for the next chunk: a DATA payload in a
  //    shared buffer by reference, anything else by copy.
  if (bytes.size() > kFrameHeaderSize && owner != nullptr &&
      bytes[3] == static_cast<std::uint8_t>(FrameType::kData)) {
    buffer_.assign(bytes.begin(), bytes.begin() + kFrameHeaderSize);
    shared_owner_ = *owner;
    shared_begin_ = bytes.data() + kFrameHeaderSize;
    shared_len_ = bytes.size() - kFrameHeaderSize;
  } else {
    buffer_.assign(bytes.begin(), bytes.end());
  }
  return std::nullopt;
}

std::pair<SettingsId, std::uint32_t> SettingsView::operator[](
    std::size_t i) const {
  const std::uint8_t* p = payload.data() + 6 * i;
  return {static_cast<SettingsId>((static_cast<std::uint16_t>(p[0]) << 8) |
                                  p[1]),
          get_u32(p + 2)};
}

bool FrameParser::Handler::on_header_block(const HeaderBlockView& f) {
  std::vector<std::uint8_t> block(f.header_block.begin(),
                                  f.header_block.end());
  if (f.type == FrameType::kPushPromise) {
    return on_frame(
        Frame(PushPromiseFrame{f.stream_id, f.promised_id, std::move(block)}));
  }
  return on_frame(Frame(
      HeadersFrame{f.stream_id, f.end_stream, f.priority, std::move(block)}));
}

bool FrameParser::Handler::on_settings(const SettingsView& f) {
  SettingsFrame frame;
  frame.ack = f.ack;
  frame.settings.reserve(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) frame.settings.push_back(f[i]);
  return on_frame(Frame(std::move(frame)));
}

util::Expected<std::vector<Frame>, ParseError> FrameParser::feed(
    std::span<const std::uint8_t> bytes) {
  struct Collect final : Handler {
    std::vector<Frame> frames;
    bool on_data(const DataView& f) override {
      frames.emplace_back(DataFrame{f.stream_id, f.end_stream,
                                    {f.data.begin(), f.data.end()},
                                    f.padding_bytes});
      return true;
    }
    bool on_frame(Frame&& f) override {
      // Move out the alternative held, not the variant: a variant moved
      // into a vector that may grow first makes GCC's -O3 flow analysis
      // see every alternative's members read uninitialized.
      std::visit(
          [this](auto&& frame) { frames.emplace_back(std::move(frame)); },
          std::move(f));
      return true;
    }
  } collect;
  if (auto error = parse(bytes, collect)) {
    return util::make_unexpected(std::move(*error));
  }
  return std::move(collect.frames);
}

}  // namespace h2push::h2
