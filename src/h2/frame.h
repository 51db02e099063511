// HTTP/2 framing layer (RFC 7540 §4, §6).
//
// Typed frame structs, a serializer, and an incremental FrameParser that
// consumes a TCP byte stream and yields frames as they complete. All ten
// frame types are implemented; HEADERS/PUSH_PROMISE carry opaque HPACK
// blocks (CONTINUATION reassembly is handled by the parser so consumers
// always see complete header blocks).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/expected.h"
#include "util/piece.h"

namespace h2push::h2 {

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

std::string_view to_string(FrameType t);

// Flag bits (per-type meaning, RFC 7540 §6).
constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS, PING
constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, PUSH_PROMISE, CONT
constexpr std::uint8_t kFlagPadded = 0x8;
constexpr std::uint8_t kFlagPriority = 0x20;   // HEADERS

// Error codes (RFC 7540 §7).
enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

// Settings identifiers (RFC 7540 §6.5.2).
enum class SettingsId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

constexpr std::size_t kFrameHeaderSize = 9;  ///< §4.1 fixed frame header
constexpr std::uint32_t kDefaultInitialWindow = 65535;
constexpr std::uint32_t kDefaultMaxFrameSize = 16384;
constexpr std::uint32_t kMaxWindow = 0x7fffffff;

/// A framing-layer protocol violation. `code` is the RFC 7540 connection
/// error the receiver must surface in its GOAWAY (§5.4.1): length
/// violations map to FRAME_SIZE_ERROR, everything else to PROTOCOL_ERROR.
struct ParseError {
  ErrorCode code = ErrorCode::kProtocolError;
  std::string message;
};

/// Stream dependency info carried in HEADERS / PRIORITY frames.
struct PrioritySpec {
  std::uint32_t depends_on = 0;
  std::uint16_t weight = 16;  // effective weight 1..256 (wire value + 1)
  bool exclusive = false;
  bool operator==(const PrioritySpec&) const = default;
};

struct DataFrame {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::vector<std::uint8_t> data;
  /// Pad-Length octet + padding stripped by the parser (flow-control
  /// accounting needs the full payload size, RFC 7540 §6.9).
  std::size_t padding_bytes = 0;
  bool operator==(const DataFrame&) const = default;
};

struct HeadersFrame {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::optional<PrioritySpec> priority;
  std::vector<std::uint8_t> header_block;  // complete (post-CONTINUATION)
  bool operator==(const HeadersFrame&) const = default;
};

struct PriorityFrame {
  std::uint32_t stream_id = 0;
  PrioritySpec priority;
  bool operator==(const PriorityFrame&) const = default;
};

struct RstStreamFrame {
  std::uint32_t stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  bool operator==(const RstStreamFrame&) const = default;
};

struct SettingsFrame {
  bool ack = false;
  std::vector<std::pair<SettingsId, std::uint32_t>> settings;
  bool operator==(const SettingsFrame&) const = default;
};

struct PushPromiseFrame {
  std::uint32_t stream_id = 0;    // the stream the promise rides on
  std::uint32_t promised_id = 0;  // even, server-initiated
  std::vector<std::uint8_t> header_block;
  bool operator==(const PushPromiseFrame&) const = default;
};

struct PingFrame {
  bool ack = false;
  std::uint64_t opaque = 0;
  bool operator==(const PingFrame&) const = default;
};

struct GoawayFrame {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::string debug_data;
  bool operator==(const GoawayFrame&) const = default;
};

struct WindowUpdateFrame {
  std::uint32_t stream_id = 0;  // 0 = connection
  std::uint32_t increment = 0;
  bool operator==(const WindowUpdateFrame&) const = default;
};

/// Frames of types outside RFC 7540 (e.g. CACHE_DIGEST, 0xd). RFC 7540 §4.1
/// requires implementations to ignore unknown types; we surface them so
/// extensions can hook in, and drop them at the Connection if unhandled.
struct ExtensionFrame {
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  std::vector<std::uint8_t> payload;
  bool operator==(const ExtensionFrame&) const = default;
};

using Frame = std::variant<DataFrame, HeadersFrame, PriorityFrame,
                           RstStreamFrame, SettingsFrame, PushPromiseFrame,
                           PingFrame, GoawayFrame, WindowUpdateFrame,
                           ExtensionFrame>;

/// Exact wire size of `frame` (header + payload + any CONTINUATIONs).
std::size_t serialized_size(const Frame& frame);

/// Append the serialization of `frame` to `out`, splitting header blocks
/// into HEADERS/PUSH_PROMISE + CONTINUATION when they exceed
/// kDefaultMaxFrameSize. DATA frames must already fit in it (the
/// connection chunks them). Reserves the exact wire size up front and
/// writes with bulk copies, so a caller reusing `out` pays no per-byte
/// work and no allocation once the buffer is warm.
void serialize_into(const Frame& frame, std::vector<std::uint8_t>& out);

/// Serialize any frame into a fresh buffer (exact-size allocation).
std::vector<std::uint8_t> serialize(const Frame& frame);

// Allocation-free appenders for the connection's hot send paths: they
// build the frame directly in the caller's buffer, skipping the Frame
// variant and its owned payload vectors entirely.

/// The header of a DATA frame carrying `length` payload bytes (at most
/// kDefaultMaxFrameSize).
std::array<std::uint8_t, kFrameHeaderSize> data_frame_header(
    std::uint32_t stream_id, bool end_stream, std::size_t length);

/// Append one DATA frame carrying `payload` (at most kDefaultMaxFrameSize).
void append_data_frame(std::vector<std::uint8_t>& out,
                       std::uint32_t stream_id, bool end_stream,
                       std::span<const std::uint8_t> payload);

/// Append a HEADERS frame (+ CONTINUATIONs) carrying an encoded block.
void append_headers_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t stream_id, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::span<const std::uint8_t> header_block);

/// Append a PUSH_PROMISE frame (+ CONTINUATIONs) carrying an encoded block.
void append_push_promise_frame(std::vector<std::uint8_t>& out,
                               std::uint32_t stream_id,
                               std::uint32_t promised_id,
                               std::span<const std::uint8_t> header_block);

/// A DATA frame as FrameParser::parse hands it over: `data` points into the
/// bytes being parsed, into a shared buffer the payload arrived in, or into
/// the parser's own buffer, so the view is valid only for the duration of
/// the Handler::on_data call that receives it. DataFrame is the owning form.
struct DataView {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::span<const std::uint8_t> data;
  /// Pad-Length octet + padding, as in DataFrame.
  std::size_t padding_bytes = 0;
};

/// A HEADERS or PUSH_PROMISE frame as FrameParser::parse hands it over, its
/// header block complete. The block is read in place when the frame needs
/// no CONTINUATION, else it points into the parser's reassembly buffer;
/// either way it is valid only during the Handler call that receives it.
/// HeadersFrame and PushPromiseFrame are the owning forms.
struct HeaderBlockView {
  FrameType type = FrameType::kHeaders;  ///< kHeaders or kPushPromise
  std::uint32_t stream_id = 0;
  bool end_stream = false;                ///< HEADERS only
  std::optional<PrioritySpec> priority;   ///< HEADERS only
  std::uint32_t promised_id = 0;          ///< PUSH_PROMISE only
  std::span<const std::uint8_t> header_block;
};

/// A SETTINGS frame read in place, valid during the Handler call that
/// receives it. SettingsFrame is the owning form.
struct SettingsView {
  bool ack = false;
  std::span<const std::uint8_t> payload;  ///< 6 bytes per setting
  std::size_t size() const noexcept { return payload.size() / 6; }
  std::pair<SettingsId, std::uint32_t> operator[](std::size_t i) const;
};

/// Incremental parser over the connection byte stream. The caller feeds
/// arbitrary chunks; complete frames come back in order. The client
/// connection preface must be consumed by the caller before feeding. A
/// frame longer than kDefaultMaxFrameSize, the SETTINGS_MAX_FRAME_SIZE
/// every Connection announces, is a FRAME_SIZE_ERROR.
class FrameParser {
 public:
  /// Receives the frames of one parse() call in wire order. DATA, HEADERS,
  /// PUSH_PROMISE and SETTINGS arrive as views; by default the last three
  /// are copied into their owned Frame and passed to on_frame, which gets
  /// every other frame. Returning false stops the parse; the parser must
  /// not be fed again after that.
  class Handler {
   public:
    virtual bool on_data(const DataView& frame) = 0;
    virtual bool on_header_block(const HeaderBlockView& frame);
    virtual bool on_settings(const SettingsView& frame);
    virtual bool on_frame(Frame&& frame) = 0;

   protected:
    ~Handler() = default;
  };

  /// Parse `bytes`, handing each frame to `handler` as soon as it is
  /// complete. A frame that lies whole in `bytes` is read in place; only a
  /// frame cut off by the end of a chunk is copied, into a buffer reused
  /// across calls. On malformed input the frames before the bad one have
  /// already been handled; the error is returned, now and by every later
  /// call (the stream is poisoned).
  std::optional<ParseError> parse(std::span<const std::uint8_t> bytes,
                                  Handler& handler);

  /// parse() over the concatenation of `pieces`, with the same frames,
  /// errors and handler calls. In addition, a DATA payload that arrives as
  /// consecutive slices of one shared buffer (pieces with the same owner)
  /// is not copied: the parser keeps a reference to the owner and hands the
  /// payload over as one span into it when the frame completes. A payload
  /// whose bytes continue anywhere else is copied as parse() copies.
  std::optional<ParseError> parse(std::span<const util::Piece> pieces,
                                  Handler& handler);

  /// parse() collecting the frames, DATA payloads copied into DataFrames:
  /// returns the frames completed by this chunk, or a connection error (no
  /// frames; the stream is poisoned afterwards).
  util::Expected<std::vector<Frame>, ParseError> feed(
      std::span<const std::uint8_t> bytes);

 private:
  /// Cap on a reassembled (post-CONTINUATION) header block. An adversarial
  /// peer can otherwise grow the pending block without bound — the
  /// SETTINGS_MAX_HEADER_LIST_SIZE limit is advisory, this one is not.
  static constexpr std::size_t kMaxHeaderBlock = 1 << 20;

  /// Parse the frame with header `header` and `payload` and hand it to
  /// `handler`. Returns whether the handler wants more.
  util::Expected<bool, ParseError> dispatch(
      const std::uint8_t* header, std::span<const std::uint8_t> payload,
      Handler& handler);
  /// Parse one piece; `owner` is its shared buffer, if any.
  std::optional<ParseError> parse_piece(std::span<const std::uint8_t> bytes,
                                        const util::SharedBytes* owner,
                                        Handler& handler, bool& more);
  /// A HEADERS or PUSH_PROMISE parsed: handed over with END_HEADERS, else
  /// kept for CONTINUATION reassembly. Returns whether the handler wants
  /// more.
  bool header_block(const HeaderBlockView& frame, std::uint8_t flags,
                    Handler& handler);
  /// Move a shared payload in progress into buffer_ (it continues
  /// elsewhere).
  void unshare();

  // The frame cut off by the end of the previous chunk (never a whole
  // one): its header, and its payload so far unless that is shared.
  std::vector<std::uint8_t> buffer_;
  // A DATA payload in progress read in place: `shared_len_` bytes from
  // `shared_begin_`, inside *shared_owner_.
  util::SharedBytes shared_owner_;
  const std::uint8_t* shared_begin_ = nullptr;
  std::size_t shared_len_ = 0;
  std::optional<ParseError> error_;  // set once: the stream is poisoned
  // CONTINUATION reassembly state.
  bool expecting_continuation_ = false;
  HeaderBlockView pending_;  // header_block unset: see pending_block_
  std::vector<std::uint8_t> pending_block_;
};

/// The 24-byte client connection preface (RFC 7540 §3.5).
std::span<const std::uint8_t> client_preface();

}  // namespace h2push::h2
