// Resource fetching: H2 connection pool with coalescing and push adoption.
//
// One H2 connection per coalescing group (browsers use a single connection
// per origin group). Fetches are deduplicated by URL — the preload scanner
// and the DOM parser both "request" resources; the second caller subscribes
// to the in-flight transfer. PUSH_PROMISEs create pushed fetches keyed by
// URL: when the renderer later asks for that URL it adopts the pushed
// stream (including data already buffered). A promise for a URL already
// requested, or for a cached URL, is cancelled with RST_STREAM(CANCEL) —
// though, as the paper notes (§2.1), the pushed bytes may already be in
// flight by then and still cost bandwidth.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <deque>

#include "browser/config.h"
#include "browser/priorities.h"
#include "h2/connection.h"
#include "http1/connection.h"
#include "http/message.h"
#include "replay/origin.h"
#include "sim/simulator.h"
#include "util/piece.h"
#include "util/rng.h"

namespace h2push::browser {

/// Transport endpoint provided by the testbed (a TCP connection to the
/// right replay server).
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual void connect(std::function<void()> on_connected) = 0;
  /// Writes bytes for the server into `out`: about `max_bytes` of them.
  using Produce =
      std::function<void(util::PieceSink& out, std::size_t max_bytes)>;
  /// Let `produce` write straight into the transport, with the transport's
  /// write granularity (the TCP watermark) as `max_bytes`. Returns the
  /// bytes written.
  virtual std::size_t write(const Produce& produce) = 0;
  virtual bool writable() const = 0;
  /// Bytes from the server, one delivery per call, as the pieces they lie
  /// in (util/piece.h); valid only during the call.
  virtual void set_receiver(
      std::function<void(std::span<const util::Piece>)> receiver) = 0;
  virtual void set_writable_callback(std::function<void()> cb) = 0;
  virtual sim::Time connect_end_time() const = 0;
};

using TransportFactory =
    std::function<std::unique_ptr<ClientTransport>(const std::string& host)>;

/// One resource transfer (shared by all interested parties).
class Fetch {
 public:
  struct Subscriber {
    /// Streaming data (new subscribers first receive buffered bytes).
    std::function<void(std::span<const std::uint8_t>, bool fin)> on_data;
    std::function<void(const Fetch&)> on_complete;
  };

  const http::Url& url() const noexcept { return url_; }
  NetPriority priority() const noexcept { return priority_; }
  bool complete() const noexcept { return complete_; }
  bool pushed() const noexcept { return pushed_; }
  bool adopted() const noexcept { return adopted_; }
  bool from_cache() const noexcept { return from_cache_; }
  int status() const noexcept { return status_; }
  /// Body bytes received so far, kept only for responses the model reads
  /// back: stylesheets (parsed once complete, possibly pushed before the
  /// renderer adopts them) and HTML. For every other type body() stays
  /// empty; size() counts the bytes of every response.
  const std::string& body() const noexcept { return body_; }
  std::size_t size() const noexcept { return size_; }
  /// content-length from the response headers (0 if unknown yet).
  std::size_t expected_size() const noexcept { return expected_size_; }
  http::ResourceType type() const noexcept { return type_; }
  sim::Time initiated_at() const noexcept { return t_initiated_; }
  sim::Time headers_at() const noexcept { return t_headers_; }
  sim::Time completed_at() const noexcept { return t_complete_; }
  /// Async-span id in the trace (0 when tracing is disabled).
  std::uint64_t trace_id() const noexcept { return trace_id_; }

  /// Subscribers attached after data arrived are first replayed body(),
  /// so only the kept types may be streamed through on_data that way.
  void subscribe(Subscriber subscriber);

 private:
  friend class FetchManager;

  /// Whether body() keeps the bytes: stylesheets and HTML.
  bool keeps_body() const noexcept;
  /// Count `data`, keep it if the type is kept, and stream it to the
  /// subscribers.
  void receive(std::span<const std::uint8_t> data, bool fin);

  http::Url url_;
  NetPriority priority_ = NetPriority::kLowest;
  bool complete_ = false;
  bool pushed_ = false;
  bool adopted_ = false;  // some consumer actually wants this resource
  bool from_cache_ = false;
  int status_ = 0;
  http::ResourceType type_ = http::ResourceType::kOther;
  std::size_t expected_size_ = 0;
  std::string body_;
  std::size_t size_ = 0;
  sim::Time t_initiated_ = -1;
  sim::Time t_headers_ = -1;
  sim::Time t_complete_ = -1;
  std::vector<Subscriber> subscribers_;
  // Pushed streams: where the promise lives, so adoption can reprioritize.
  std::size_t group_id_ = 0;
  std::uint32_t stream_id_ = 0;
  std::uint64_t trace_id_ = 0;  // async-span id (fetch index, 1-based)
};

class FetchManager {
 public:
  FetchManager(sim::Simulator& sim, const BrowserConfig& config,
               const replay::OriginMap& origins, std::string primary_host,
               TransportFactory factory);
  /// Drops the subscribers of fetches that never completed: a subscriber
  /// may own its own fetch (an async script), which would otherwise leak
  /// when a load ends at its deadline.
  ~FetchManager();
  FetchManager(const FetchManager&) = delete;
  FetchManager& operator=(const FetchManager&) = delete;

  /// Request a resource (deduplicated by URL). Returns the shared transfer.
  std::shared_ptr<Fetch> fetch(const http::Url& url, NetPriority priority);

  /// Adopted fetches still in flight.
  std::size_t outstanding() const;
  /// Invoked whenever outstanding() may have dropped to zero.
  void set_progress_callback(std::function<void()> cb) {
    progress_ = std::move(cb);
  }

  /// connectEnd of the primary-origin connection (the PLT reference).
  sim::Time main_connect_end() const;

  std::uint64_t pushed_bytes() const noexcept { return pushed_bytes_; }
  std::uint64_t total_body_bytes() const noexcept { return total_bytes_; }
  std::size_t promises_received() const noexcept {
    return promises_received_;
  }
  std::size_t pushes_cancelled() const noexcept { return pushes_cancelled_; }

  /// All fetches in initiation order (dependency analysis reads this).
  const std::vector<std::shared_ptr<Fetch>>& fetches() const noexcept {
    return fetches_;
  }

 private:
  struct H1Conn {
    std::unique_ptr<ClientTransport> transport;
    std::unique_ptr<http1::ClientConnection> conn;
    std::shared_ptr<Fetch> current;
    bool connected = false;
  };

  struct Group {
    std::size_t id = 0;
    std::string first_host;
    std::unique_ptr<ClientTransport> transport;
    std::unique_ptr<h2::Connection> conn;
    ChromiumPrioritizer prioritizer;
    bool connected = false;
    std::vector<std::shared_ptr<Fetch>> waiting;
    std::map<std::uint32_t, std::shared_ptr<Fetch>> by_stream;
    std::map<std::string, std::uint32_t> promised_by_url;  // url → stream
    // --- HTTP/1.1 mode ---
    std::vector<std::unique_ptr<H1Conn>> h1_conns;
    std::deque<std::shared_ptr<Fetch>> h1_queue;
  };

  Group& group_for(const std::string& host);
  void submit(Group& g, const std::shared_ptr<Fetch>& fetch);
  void handle_response_headers(const std::shared_ptr<Fetch>& fetch,
                               const http::HeaderBlock& headers, int status);
  void h1_dispatch(Group& g);
  http::Request request_for(const Fetch& fetch) const;
  void on_fetch_complete(const std::shared_ptr<Fetch>& fetch);
  void trace_fetch_begin(Fetch& fetch);
  bool should_delay(const Fetch& fetch) const;
  void release_delayed();

  sim::Simulator& sim_;
  const BrowserConfig& config_;
  const replay::OriginMap& origins_;
  std::string primary_host_;
  TransportFactory factory_;
  std::map<std::string, std::size_t> host_group_;
  std::map<std::size_t, std::unique_ptr<Group>> groups_;
  std::map<std::string, std::shared_ptr<Fetch>> by_url_;
  std::string url_key_;  // fetch()'s key buffer, reused by every call
  std::vector<std::shared_ptr<Fetch>> fetches_;
  std::vector<std::shared_ptr<Fetch>> delayed_;  // throttled image requests
  std::function<void()> progress_;
  std::uint64_t pushed_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::size_t promises_received_ = 0;
  std::size_t pushes_cancelled_ = 0;
  // The HTTP/2 request block, reused by every submit(): the pseudo-headers
  // to_h2_headers() writes first, then request_for()'s fixed fields.
  static constexpr std::size_t kSchemeField = 1;
  static constexpr std::size_t kAuthorityField = 2;
  static constexpr std::size_t kPathField = 3;
  http::HeaderBlock h2_request_;
};

}  // namespace h2push::browser
