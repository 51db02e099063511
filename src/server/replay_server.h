// h2o-like replay server session.
//
// One ReplayServer handles one H2 connection (Mahimahi spawns one server
// per recorded IP; the testbed creates one session per client connection).
// Requests are matched against the record store by :authority + :path — the
// h2o-FastCGI module of the paper. When a request matches a push policy's
// trigger (normally the landing page), the server issues PUSH_PROMISEs in
// policy order, skipping resources a received CACHE_DIGEST says the client
// holds, submits the pushed responses, and — if the policy asks for
// interleaving — has the connection hold the parent stream at the byte
// offset until the critical pushes are sent (h2::Connection::interleave).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "h2/cache_digest.h"
#include "h2/connection.h"
#include "replay/origin.h"
#include "replay/record.h"

namespace h2push::server {

/// What to push, and how, when the trigger request arrives.
struct PushPolicy {
  std::string trigger_host;
  std::string trigger_path = "/";
  /// Absolute URLs, in push order.
  std::vector<std::string> push_urls;
  /// Hold the parent at interleave_offset until the critical pushes are
  /// sent (the paper's §5 scheduler change).
  bool interleaving = false;
  /// Bytes of the parent (HTML) to send before the hard switch.
  std::size_t interleave_offset = 4096;
  /// The first `critical_count` push_urls are drained during the pause;
  /// the rest follow the dependency tree after the parent.
  std::size_t critical_count = static_cast<std::size_t>(-1);
  /// URLs advertised as "link: <url>; rel=preload" response headers on the
  /// trigger instead of (or besides) being pushed — the Vroom/MetaPush
  /// server-aided-hints baseline.
  std::vector<std::string> hint_urls;

  bool empty() const noexcept {
    return push_urls.empty() && hint_urls.empty();
  }
};

class ReplayServer {
 public:
  struct Config {
    const replay::RecordStore* store = nullptr;
    const replay::OriginMap* origins = nullptr;
    /// Push policies: trigger host → policy. A policy applies when a
    /// request hits its trigger_host + trigger_path. Not owned; must
    /// outlive the session. Null = plain serving.
    const std::map<std::string, PushPolicy>* policies = nullptr;
    /// Fallback :authority when the requested one has no record — lets
    /// off-the-shelf clients (nghttp, curl) that send "127.0.0.1:port" as
    /// authority reach a recorded site. Empty = strict matching.
    std::string default_authority;
    /// Optional deferral of every response (the testbed's server think
    /// time): receives the response continuation and must run it exactly
    /// once, later. Unset = respond immediately.
    std::function<void(std::function<void()>)> defer;
    /// Optional trace recorder shared with the whole run; events land on
    /// `trace_track` (one track per server session).
    trace::TraceRecorder* trace = nullptr;
    std::uint32_t trace_track = 0;
  };

  explicit ReplayServer(Config config);

  /// The server-side H2 endpoint; the testbed wires its produce()/receive()
  /// to the TCP model.
  h2::Connection& connection() { return *conn_; }

  /// Set by the testbed: called when the endpoint has bytes to flush.
  void set_write_ready(std::function<void()> cb) {
    write_ready_ = std::move(cb);
  }

  std::uint64_t requests_served() const noexcept { return requests_served_; }
  std::uint64_t push_promises_sent() const noexcept {
    return push_promises_sent_;
  }
  std::uint64_t pushes_skipped_by_digest() const noexcept {
    return pushes_skipped_by_digest_;
  }
  bool received_cache_digest() const noexcept { return has_digest_; }

 private:
  void on_request(std::uint32_t stream, http::HeaderBlock headers);
  const PushPolicy* match_policy(const std::string& authority,
                                 const std::string& path) const;
  void respond(std::uint32_t stream, const replay::RecordedExchange& ex);
  void respond_with_hints(std::uint32_t stream,
                          const replay::RecordedExchange& ex,
                          const std::vector<std::string>& hints);
  void apply_push_policy(std::uint32_t parent_stream,
                         const PushPolicy& policy);

  Config config_;
  std::unique_ptr<h2::Connection> conn_;
  std::function<void()> write_ready_;
  bool corked_ = false;  // hold writes while a response is being assembled
  h2::CacheDigest digest_;
  bool has_digest_ = false;
  std::uint64_t requests_served_ = 0;
  std::uint64_t push_promises_sent_ = 0;
  std::uint64_t pushes_skipped_by_digest_ = 0;
};

}  // namespace h2push::server
