// HTTP/1.1 endpoint pair (client + server roles), the baseline protocol the
// paper's introduction frames HTTP/2 against: one request at a time per
// connection (no multiplexing → application-layer head-of-line blocking),
// textual framing, repeated uncompressed headers, and browsers opening up
// to six parallel connections per origin to compensate.
//
// The H1 mode lets the testbed reproduce the classic SPDY/H2-vs-H1
// comparisons the paper cites ([15, 35, 37]) on the same sites, corpus and
// network model as the push experiments. It travels the byte path HTTP/2
// does (util/piece.h): both ends read deliveries as pieces, and a response
// body goes from the replay store to on_body_data by reference.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "util/piece.h"

namespace h2push::http1 {

/// Serialize a GET request (request line + headers + CRLF).
std::string serialize_request(const http::Request& request);

/// Serialize response head for a body of `body_size` bytes.
std::string serialize_response_head(const http::Response& response);

/// The one message head parser, for requests and responses: `head` is the
/// text before the blank line that ends it. Returns the start line's
/// space-separated fields (views into `head`) and appends the header
/// fields to `headers`, names lowercased.
std::vector<std::string_view> parse_head(std::string_view head,
                                         http::HeaderBlock& headers);

/// Collects one message head from a byte stream: the bytes up to and
/// including the blank line that ends it, and not one byte further, so
/// what follows the head (a body) can be read where it lies.
class HeadReader {
 public:
  /// Take head bytes from the front of `bytes`; returns how many.
  std::size_t take(std::span<const std::uint8_t> bytes);
  bool complete() const noexcept { return matched_ == kEnd.size(); }
  /// The head without its blank line; valid once complete().
  std::string_view head() const noexcept {
    return std::string_view(bytes_).substr(0, bytes_.size() - kEnd.size());
  }
  /// Bytes taken since the last clear().
  std::size_t size() const noexcept { return bytes_.size(); }
  /// Start reading the next head.
  void clear() noexcept {
    bytes_.clear();
    matched_ = 0;
  }

 private:
  static constexpr std::string_view kEnd = "\r\n\r\n";
  std::string bytes_;
  std::size_t matched_ = 0;  // bytes of kEnd that bytes_ ends with
};

/// Incremental parser for the requests a server reads (GETs: no body).
class RequestParser {
 public:
  struct Message {
    std::string method;
    std::string target;
    http::HeaderBlock headers;
  };

  /// Feed bytes; complete requests come back in order.
  std::vector<Message> feed(std::span<const std::uint8_t> bytes);

  bool in_error() const noexcept { return error_; }

 private:
  HeadReader head_;
  bool error_ = false;
};

/// Bytes queued for the transport, in order: strings the outbox owns,
/// copied into the sink as they drain, and response bodies, written to the
/// sink by reference as slices of the body.
class Outbox {
 public:
  void append(std::string bytes);
  void append_shared(util::SharedBytes body);
  bool empty() const noexcept { return runs_.empty(); }
  /// Write up to `max_bytes` queued bytes to `out`; returns how many.
  std::size_t drain_into(util::PieceSink& out, std::size_t max_bytes);

 private:
  struct Run {
    std::string bytes;
    util::SharedBytes shared;  // when set, the run is *shared
  };
  std::deque<Run> runs_;
  std::size_t read_ = 0;  // bytes of runs_.front() already drained
};

/// A client-side H1.1 connection: serial request/response over one stream
/// of bytes (keep-alive, no pipelining — matching 2018 browsers). Response
/// bodies stream to the caller as they arrive, so the renderer can parse
/// the HTML incrementally exactly as it does over H2.
class ClientConnection {
 public:
  struct Callbacks {
    std::function<void(const http::HeaderBlock&, int status)> on_headers;
    /// Body bytes in place, one call per run of them that lies in one
    /// delivered piece; valid only during the call.
    std::function<void(std::span<const std::uint8_t>, bool fin)> on_body_data;
    /// Bytes ready to be written to the transport.
    std::function<void()> on_write_ready;
  };

  explicit ClientConnection(Callbacks callbacks)
      : callbacks_(std::move(callbacks)) {}

  /// Queue a request; sent immediately if idle, otherwise after the
  /// in-flight exchange completes (serial connection).
  void submit_request(const http::Request& request);

  bool busy() const noexcept { return in_flight_; }
  std::size_t queued() const noexcept { return queue_.size(); }

  /// Read one delivery. Only head bytes are copied.
  void receive(std::span<const util::Piece> pieces);
  bool want_write() const noexcept { return !outbox_.empty(); }
  /// Write up to `max_bytes` queued bytes to `out`; returns how many.
  std::size_t produce(util::PieceSink& out, std::size_t max_bytes) {
    return outbox_.drain_into(out, max_bytes);
  }

 private:
  void send_next();
  // Read the bytes of one piece.
  void read(std::span<const std::uint8_t> bytes);
  // The head is complete: report it and start its body.
  void on_head();

  Callbacks callbacks_;
  std::deque<http::Request> queue_;
  bool in_flight_ = false;
  Outbox outbox_;
  // Incremental response state.
  HeadReader head_;
  bool reading_body_ = false;
  std::size_t body_remaining_ = 0;
};

/// Server side: parses requests, application responds in order.
class ServerConnection {
 public:
  struct Callbacks {
    std::function<void(const RequestParser::Message&)> on_request;
    std::function<void()> on_write_ready;
  };

  explicit ServerConnection(Callbacks callbacks)
      : callbacks_(std::move(callbacks)) {}

  /// Queue a response; `body` (may be null when empty) is sent by
  /// reference.
  void submit_response(const http::Response& head,
                       const util::SharedBytes& body);

  /// Read one delivery.
  void receive(std::span<const util::Piece> pieces);
  bool want_write() const noexcept { return !outbox_.empty(); }
  /// Write up to `max_bytes` queued bytes to `out`; returns how many.
  std::size_t produce(util::PieceSink& out, std::size_t max_bytes) {
    return outbox_.drain_into(out, max_bytes);
  }

 private:
  Callbacks callbacks_;
  RequestParser parser_;
  Outbox outbox_;
};

}  // namespace h2push::http1
