#include "server/replay_server.h"

#include <algorithm>

#include "http/url.h"
#include "trace/trace.h"

namespace h2push::server {

ReplayServer::ReplayServer(Config config) : config_(std::move(config)) {
  h2::Connection::Config cc;
  cc.role = h2::Role::kServer;
  h2::Connection::Callbacks cbs;
  cbs.on_headers = [this](std::uint32_t stream, http::HeaderBlock headers,
                          bool /*end_stream*/) {
    on_request(stream, std::move(headers));
  };
  cbs.on_write_ready = [this] {
    if (!corked_ && write_ready_) write_ready_();
  };
  cbs.on_extension_frame = [this](const h2::ExtensionFrame& frame) {
    if (frame.type != h2::kCacheDigestFrameType) return;
    auto digest = h2::CacheDigest::decode(frame.payload);
    if (digest.has_value()) {
      digest_ = std::move(*digest);
      has_digest_ = true;
    }
  };
  conn_ = std::make_unique<h2::Connection>(cc, std::move(cbs));
  if (config_.trace != nullptr) {
    conn_->set_trace(config_.trace, config_.trace_track);
  }
  conn_->start();
}

const PushPolicy* ReplayServer::match_policy(const std::string& authority,
                                             const std::string& path) const {
  if (config_.policies == nullptr) return nullptr;
  const auto it = config_.policies->find(authority);
  if (it == config_.policies->end() || it->second.trigger_path != path) {
    return nullptr;
  }
  return &it->second;
}

void ReplayServer::on_request(std::uint32_t stream,
                              http::HeaderBlock headers) {
  ++requests_served_;
  std::string authority(http::find_header(headers, ":authority"));
  const std::string path(http::find_header(headers, ":path"));
  const auto* exchange = config_.store->find(authority, path);
  if (exchange == nullptr && !config_.default_authority.empty()) {
    exchange = config_.store->find(config_.default_authority, path);
    if (exchange != nullptr) authority = config_.default_authority;
  }
  if (exchange == nullptr) {
    http::Response not_found;
    not_found.status = 404;
    not_found.body_size = 0;
    conn_->submit_response(stream, not_found.to_h2_headers(), nullptr);
    return;
  }
  const PushPolicy* policy = match_policy(authority, path);
  if (config_.trace != nullptr) {
    config_.trace->instant(config_.trace_track, "server", "request",
                           {{"stream", stream},
                            {"path", authority + path},
                            {"trigger", policy != nullptr ? 1 : 0}});
  }
  const auto respond_now = [this, stream, exchange, policy] {
    // Cork the transport while the whole response (push promises, pushed
    // responses, the parent response) is queued, so the stream scheduler —
    // not submission order — decides what goes on the wire first. Push
    // promises are sent before the parent response so the client learns
    // about them before it could discover and request the resources.
    corked_ = true;
    if (policy != nullptr) apply_push_policy(stream, *policy);
    if (policy != nullptr && !policy->hint_urls.empty()) {
      respond_with_hints(stream, *exchange, policy->hint_urls);
    } else {
      respond(stream, *exchange);
    }
    corked_ = false;
    if (write_ready_) write_ready_();
  };
  if (config_.defer) {
    config_.defer(respond_now);
  } else {
    respond_now();
  }
}

void ReplayServer::respond(std::uint32_t stream,
                           const replay::RecordedExchange& ex) {
  if (config_.trace != nullptr) {
    config_.trace->instant(
        config_.trace_track, "server", "respond",
        {{"stream", stream},
         {"status", ex.response.status},
         {"bytes", ex.body ? ex.body->size() : std::size_t{0}}});
  }
  conn_->submit_response(stream, ex.response.to_h2_headers(), ex.body);
}

void ReplayServer::respond_with_hints(std::uint32_t stream,
                                      const replay::RecordedExchange& ex,
                                      const std::vector<std::string>& hints) {
  auto headers = ex.response.to_h2_headers();
  for (const auto& hint : hints) {
    headers.push_back({"link", "<" + hint + ">; rel=preload"});
  }
  conn_->submit_response(stream, headers, ex.body);
}

void ReplayServer::apply_push_policy(std::uint32_t parent_stream,
                                     const PushPolicy& policy) {
  std::vector<std::uint32_t> critical;
  std::size_t index = 0;
  for (const auto& push_url : policy.push_urls) {
    auto url = http::parse_url(push_url);
    if (!url) continue;
    // RFC 7540 §10.1: only push origins this server is authoritative for.
    if (config_.origins != nullptr &&
        !config_.origins->is_authoritative(policy.trigger_host, url->host)) {
      ++index;
      continue;
    }
    const auto* exchange = config_.store->find(url->host, url->path);
    if (exchange == nullptr) {
      ++index;
      continue;
    }
    // Cache digest: the client told us it already holds this resource.
    if (has_digest_ && digest_.probably_contains(push_url)) {
      ++pushes_skipped_by_digest_;
      if (config_.trace != nullptr) {
        config_.trace->instant(config_.trace_track, "server",
                               "push.skipped_digest", {{"url", push_url}});
      }
      ++index;
      continue;
    }
    http::Request push_req;
    push_req.url = *url;
    const std::uint32_t promised =
        conn_->submit_push_promise(parent_stream, push_req.to_h2_headers());
    if (promised == 0) {
      // Peer disabled push (SETTINGS_ENABLE_PUSH=0): nothing to do.
      return;
    }
    ++push_promises_sent_;
    if (config_.trace != nullptr) {
      config_.trace->instant(
          config_.trace_track, "server", "push_promise",
          {{"parent", parent_stream}, {"promised", promised},
           {"url", push_url}});
      ++config_.trace->summary().push_promises;
    }
    conn_->submit_response(promised, exchange->response.to_h2_headers(),
                           exchange->body);
    if (policy.interleaving && index < policy.critical_count) {
      critical.push_back(promised);
    }
    ++index;
  }
  if (!critical.empty()) {
    if (config_.trace != nullptr) {
      config_.trace->instant(
          config_.trace_track, "server", "interleave.configure",
          {{"parent", parent_stream},
           {"offset", policy.interleave_offset},
           {"critical", critical.size()}});
    }
    conn_->interleave(parent_stream, policy.interleave_offset,
                      std::move(critical));
  }
}

}  // namespace h2push::server
