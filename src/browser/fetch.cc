#include "browser/fetch.h"

#include <cassert>
#include <cstdlib>

#include "h2/cache_digest.h"
#include "http/url.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace h2push::browser {
namespace {

/// Write what a connection has queued while its transport takes it: an
/// HTTP/2 group or one HTTP/1.1 connection, both writing whole frames or
/// request bytes straight into the transport.
template <typename Holder>
void pump(Holder& holder) {
  if (!holder.connected || !holder.transport) return;
  auto& conn = *holder.conn;
  const ClientTransport::Produce produce =
      [&conn](util::PieceSink& out, std::size_t max_bytes) {
        conn.produce(out, max_bytes);
      };
  while (holder.transport->writable() && conn.want_write()) {
    if (holder.transport->write(produce) == 0) break;
  }
}

}  // namespace

void Fetch::subscribe(Subscriber subscriber) {
  // Replay what already happened, then attach for live events.
  if (subscriber.on_data && !body_.empty()) {
    subscriber.on_data(
        {reinterpret_cast<const std::uint8_t*>(body_.data()), body_.size()},
        complete_);
  }
  if (complete_) {
    if (subscriber.on_complete) subscriber.on_complete(*this);
    return;
  }
  subscribers_.push_back(std::move(subscriber));
}

bool Fetch::keeps_body() const noexcept {
  return type_ == http::ResourceType::kCss ||
         type_ == http::ResourceType::kHtml;
}

void Fetch::receive(std::span<const std::uint8_t> data, bool fin) {
  size_ += data.size();
  if (keeps_body()) {
    body_.append(reinterpret_cast<const char*>(data.data()), data.size());
  }
  for (auto& sub : subscribers_) {
    if (sub.on_data) sub.on_data(data, fin);
  }
}

FetchManager::FetchManager(sim::Simulator& sim, const BrowserConfig& config,
                           const replay::OriginMap& origins,
                           std::string primary_host,
                           TransportFactory factory)
    : sim_(sim),
      config_(config),
      origins_(origins),
      primary_host_(std::move(primary_host)),
      factory_(std::move(factory)) {
  host_group_ = origins_.coalescing_groups(primary_host_);
  h2_request_ = request_for(Fetch{}).to_h2_headers();
  assert(h2_request_[kSchemeField].name == ":scheme" &&
         h2_request_[kAuthorityField].name == ":authority" &&
         h2_request_[kPathField].name == ":path");
}

FetchManager::~FetchManager() {
  for (auto& fetch : fetches_) fetch->subscribers_.clear();
}

sim::Time FetchManager::main_connect_end() const {
  const auto git = host_group_.find(primary_host_);
  if (git == host_group_.end()) return 0;
  const auto it = groups_.find(git->second);
  if (it == groups_.end()) return 0;
  const Group& g = *it->second;
  if (g.transport) return g.transport->connect_end_time();
  if (!g.h1_conns.empty() && g.h1_conns.front()->transport) {
    return g.h1_conns.front()->transport->connect_end_time();
  }
  return 0;
}

FetchManager::Group& FetchManager::group_for(const std::string& host) {
  std::size_t gid;
  const auto git = host_group_.find(host);
  if (git != host_group_.end()) {
    gid = git->second;
  } else {
    // Unknown host (should not happen with generated corpora): isolate it.
    gid = 1000000 + host_group_.size();
    host_group_[host] = gid;
  }
  auto it = groups_.find(gid);
  if (it != groups_.end()) return *it->second;

  auto group = std::make_unique<Group>();
  Group& g = *group;
  groups_.emplace(gid, std::move(group));
  g.id = gid;
  g.first_host = host;
  if (config_.use_http1) return g;  // connections open lazily per request
  g.transport = factory_(host);

  h2::Connection::Config cc;
  cc.role = h2::Role::kClient;
  cc.enable_push = config_.enable_push;
  cc.initial_window = kInitialStreamWindow;
  cc.connection_window_bonus = kConnectionWindowBonus;
  h2::Connection::Callbacks cbs;
  cbs.on_headers = [this, &g](std::uint32_t stream, http::HeaderBlock headers,
                              bool end_stream) {
    auto it2 = g.by_stream.find(stream);
    if (it2 == g.by_stream.end()) return;
    auto& fetch = it2->second;
    const auto status_sv = http::find_header(headers, ":status");
    handle_response_headers(
        fetch, headers,
        status_sv.empty() ? 0 : std::atoi(std::string(status_sv).c_str()));
    if (end_stream) on_fetch_complete(fetch);
  };
  cbs.on_data = [this, &g](std::uint32_t stream,
                           std::span<const std::uint8_t> data,
                           bool end_stream) {
    // Account wire bytes even for cancelled pushes: by the time the RST
    // reaches the server, pushed data is already in flight (paper §2.1)
    // and it still cost downlink bandwidth.
    total_bytes_ += data.size();
    if (stream % 2 == 0) pushed_bytes_ += data.size();
    auto it2 = g.by_stream.find(stream);
    if (config_.trace != nullptr) {
      auto& s = config_.trace->summary();
      s.bytes_total += data.size();
      if (stream % 2 == 0) {
        s.bytes_pushed += data.size();
        // Pushed bytes the client had not (yet) asked for: the stream is
        // cancelled, or the renderer has not adopted the resource.
        if (it2 == g.by_stream.end() || !it2->second->adopted_) {
          s.bytes_pushed_before_request += data.size();
        }
      }
    }
    if (it2 == g.by_stream.end()) return;
    auto& fetch = it2->second;
    fetch->receive(data, end_stream);
    if (end_stream) on_fetch_complete(fetch);
  };
  cbs.on_push_promise = [this, &g](std::uint32_t /*parent*/,
                                   std::uint32_t promised,
                                   http::HeaderBlock request_headers) {
    ++promises_received_;
    http::Url url;
    url.scheme = std::string(http::find_header(request_headers, ":scheme"));
    url.host = std::string(http::find_header(request_headers, ":authority"));
    url.path = std::string(http::find_header(request_headers, ":path"));
    if (url.scheme.empty()) url.scheme = "https";
    const std::string key = url.str();
    // Cancel if cached or already requested as a normal stream.
    if (config_.cached_urls.count(key) != 0 || by_url_.count(key) != 0) {
      ++pushes_cancelled_;
      if (config_.trace != nullptr) {
        config_.trace->instant(
            config_.trace_track, "browser", "push.cancel",
            {{"url", key},
             {"reason", config_.cached_urls.count(key) != 0
                            ? "cached" : "already_requested"}});
        ++config_.trace->summary().pushes_cancelled;
      }
      g.conn->submit_rst(promised, h2::ErrorCode::kCancel);
      return;
    }
    auto fetch = std::make_shared<Fetch>();
    fetch->url_ = url;
    fetch->pushed_ = true;
    fetch->t_initiated_ = sim_.now();
    fetch->group_id_ = g.id;
    fetch->stream_id_ = promised;
    by_url_[key] = fetch;
    fetches_.push_back(fetch);
    trace_fetch_begin(*fetch);
    g.by_stream[promised] = std::move(fetch);
  };
  cbs.on_write_ready = [&g] { pump(g); };
  cbs.on_stream_closed = [&g](std::uint32_t stream) {
    // Keep the Chromium priority chain healthy: closed streams must not be
    // chosen as dependency parents for future requests.
    g.prioritizer.on_stream_closed(stream);
  };
  g.conn = std::make_unique<h2::Connection>(cc, std::move(cbs));
  if (config_.trace != nullptr) {
    // Group creation order is deterministic, so so is the track layout.
    g.conn->set_trace(config_.trace,
                      config_.trace->register_track("h2.client." + host));
  }

  g.transport->set_receiver([&g](std::span<const util::Piece> pieces) {
    g.conn->receive(pieces);
  });
  g.transport->set_writable_callback([&g] { pump(g); });
  g.transport->connect([this, &g] {
    g.connected = true;
    g.conn->start();
    if (config_.send_cache_digest && !config_.cached_urls.empty()) {
      // Summarize the cached resources this connection's origins serve.
      std::vector<std::string> urls;
      for (const auto& url_str : config_.cached_urls) {
        const auto parsed = http::parse_url(url_str);
        if (!parsed) continue;
        const auto hit = host_group_.find(parsed->host);
        if (hit != host_group_.end() && hit->second == g.id) {
          urls.push_back(url_str);
        }
      }
      if (!urls.empty()) {
        const auto digest = h2::CacheDigest::build(urls);
        h2::ExtensionFrame frame;
        frame.type = h2::kCacheDigestFrameType;
        frame.payload = digest.encode();
        g.conn->submit_extension(frame);
      }
    }
    for (auto& fetch : g.waiting) submit(g, fetch);
    g.waiting.clear();
    pump(g);
  });
  return g;
}

void FetchManager::trace_fetch_begin(Fetch& fetch) {
  if (config_.trace == nullptr) return;
  fetch.trace_id_ = fetches_.size();  // 1-based initiation order
  config_.trace->async_begin(config_.trace_track, "browser", "fetch",
                             fetch.trace_id_,
                             {{"url", fetch.url_.str()},
                              {"pushed", fetch.pushed_ ? 1 : 0},
                              {"priority", static_cast<int>(fetch.priority_)}});
}

http::Request FetchManager::request_for(const Fetch& fetch) const {
  http::Request req;
  req.url = fetch.url_;
  // Realistic 2018 request headers: the first request on a connection
  // costs several hundred uplink bytes; HPACK's dynamic table compresses
  // the repeats (H2), while H1 resends them in full every time.
  req.headers = {
      {"user-agent",
       "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like "
       "Gecko) Chrome/64.0.3282.119 Safari/537.36"},
      {"accept",
       "text/html,application/xhtml+xml,application/xml;q=0.9,image/webp,"
       "image/apng,*/*;q=0.8"},
      {"accept-language", "en-US,en;q=0.9"},
      {"accept-encoding", "gzip, deflate, br"},
      {"referer", "https://" + primary_host_ + "/"},
      {"cookie",
       "sid=a1b2c3d4e5f60718293a4b5c6d7e8f90; prefs=layout%3Dwide%3Btheme%"
       "3Dlight; _ga=GA1.2.1234567890.1516239022; consent=accepted"},
  };
  return req;
}

void FetchManager::submit(Group& g, const std::shared_ptr<Fetch>& fetch) {
  // The block request_for(*fetch).to_h2_headers() would build: only the
  // URL's fields differ between requests, and assigning them reuses the
  // strings' storage.
  h2_request_[kSchemeField].value = fetch->url_.scheme;
  h2_request_[kAuthorityField].value = fetch->url_.host;
  h2_request_[kPathField].value = fetch->url_.path;
  const h2::PrioritySpec spec = g.prioritizer.plan(fetch->priority_);
  const std::uint32_t id = g.conn->submit_request(h2_request_, spec);
  g.prioritizer.commit(id, fetch->priority_);
  g.by_stream[id] = fetch;
  pump(g);
}

void FetchManager::handle_response_headers(
    const std::shared_ptr<Fetch>& fetch, const http::HeaderBlock& headers,
    int status) {
  fetch->t_headers_ = sim_.now();
  fetch->status_ = status;
  if (config_.trace != nullptr && fetch->trace_id_ != 0) {
    config_.trace->async_instant(config_.trace_track, "browser", "fetch",
                                 fetch->trace_id_,
                                 {{"mark", "first_byte"}, {"status", status}});
  }
  fetch->type_ = http::classify(http::find_header(headers, "content-type"),
                                fetch->url_.path);
  const auto content_length = http::find_header(headers, "content-length");
  if (!content_length.empty()) {
    fetch->expected_size_ = static_cast<std::size_t>(
        std::atoll(std::string(content_length).c_str()));
    if (fetch->keeps_body()) fetch->body_.reserve(fetch->expected_size_);
  }
  // Link rel=preload response headers (server-aided dependency hints).
  for (const auto& header : headers) {
    if (header.name != "link") continue;
    for (auto part : util::split(header.value, ',')) {
      const auto lt = part.find('<');
      const auto gt = part.find('>');
      if (lt == std::string_view::npos || gt == std::string_view::npos ||
          part.find("rel=preload") == std::string_view::npos) {
        continue;
      }
      const auto target = part.substr(lt + 1, gt - lt - 1);
      const auto resolved = http::resolve(fetch->url_, target);
      const auto type = http::classify("", resolved.path);
      this->fetch(resolved, priority_for(type, true, false));
    }
  }
}

void FetchManager::h1_dispatch(Group& g) {
  while (!g.h1_queue.empty()) {
    // An idle, connected H1 connection?
    H1Conn* idle = nullptr;
    for (auto& c : g.h1_conns) {
      if (c->connected && !c->current && !c->conn->busy()) {
        idle = c.get();
        break;
      }
    }
    if (idle != nullptr) {
      auto fetch = g.h1_queue.front();
      g.h1_queue.pop_front();
      idle->current = std::move(fetch);
      idle->conn->submit_request(request_for(*idle->current));
      pump(*idle);
      continue;
    }
    // Room to open another connection (browsers cap at 6 per origin and
    // open them in parallel when demand warrants)?
    std::size_t connecting = 0;
    for (const auto& c : g.h1_conns) {
      if (!c->connected) ++connecting;
    }
    if (g.h1_conns.size() < kH1ConnectionsPerOrigin &&
        connecting < g.h1_queue.size()) {
      auto conn = std::make_unique<H1Conn>();
      H1Conn& c = *conn;
      g.h1_conns.push_back(std::move(conn));
      c.transport = factory_(g.first_host);
      http1::ClientConnection::Callbacks cbs;
      cbs.on_headers = [this, &c](const http::HeaderBlock& headers,
                                  int status) {
        if (c.current) handle_response_headers(c.current, headers, status);
      };
      cbs.on_body_data = [this, &g, &c](std::span<const std::uint8_t> data,
                                        bool fin) {
        if (!c.current) return;
        total_bytes_ += data.size();
        if (config_.trace != nullptr) {
          config_.trace->summary().bytes_total += data.size();
        }
        auto fetch = c.current;
        fetch->receive(data, fin);
        if (fin) {
          c.current.reset();
          on_fetch_complete(fetch);
          h1_dispatch(g);
        }
      };
      cbs.on_write_ready = [&c] { pump(c); };
      c.conn = std::make_unique<http1::ClientConnection>(std::move(cbs));
      c.transport->set_receiver([&c](std::span<const util::Piece> pieces) {
        c.conn->receive(pieces);
      });
      c.transport->set_writable_callback([&c] { pump(c); });
      c.transport->connect([this, &g, &c] {
        c.connected = true;
        h1_dispatch(g);
      });
      continue;  // open further connections in parallel if demand remains
    }
    return;  // all connections busy/connecting: wait
  }
}

bool FetchManager::should_delay(const Fetch& fetch) const {
  if (!config_.delayable_throttling) return false;
  if (fetch.priority_ != NetPriority::kLowest) return false;
  // Render-blocking work outstanding?
  bool blocking = false;
  std::size_t delayable_in_flight = 0;
  for (const auto& f : fetches_) {
    if (f->complete_ || !f->adopted_ || f.get() == &fetch) continue;
    if (f->pushed_) continue;  // pushes are server-initiated, not throttled
    if (f->priority_ == NetPriority::kHighest ||
        f->priority_ == NetPriority::kHigh) {
      blocking = true;
    }
    if (f->priority_ == NetPriority::kLowest && f->t_headers_ < 0) {
      ++delayable_in_flight;
    }
  }
  return blocking && delayable_in_flight >= kDelayableProbeLimit;
}

void FetchManager::release_delayed() {
  if (delayed_.empty()) return;
  std::vector<std::shared_ptr<Fetch>> still_delayed;
  for (auto& fetch : delayed_) {
    if (should_delay(*fetch)) {
      still_delayed.push_back(fetch);
      continue;
    }
    Group& g = group_for(fetch->url_.host);
    if (g.connected) {
      submit(g, fetch);
    } else {
      g.waiting.push_back(fetch);
    }
  }
  delayed_ = std::move(still_delayed);
}

std::shared_ptr<Fetch> FetchManager::fetch(const http::Url& url,
                                           NetPriority priority) {
  const std::string key = url.str();
  auto it = by_url_.find(key);
  if (it != by_url_.end()) {
    auto& existing = it->second;
    if (!existing->adopted_) {
      existing->adopted_ = true;
      existing->priority_ = priority;
      // Chromium reprioritizes a pushed stream once it matches a real
      // request: the stream moves from "child of the parent, weight 16"
      // (h2o's default placement) into the client's priority chain, so a
      // pushed critical CSS no longer round-robins with pushed images.
      if (existing->pushed_ && !existing->complete_) {
        const auto git = groups_.find(existing->group_id_);
        if (git != groups_.end()) {
          Group& g = *git->second;
          const h2::PrioritySpec spec = g.prioritizer.plan(priority);
          g.conn->submit_priority(existing->stream_id_, spec);
          g.prioritizer.commit(existing->stream_id_, priority);
          pump(g);
        }
      }
    }
    return existing;
  }
  auto fetch = std::make_shared<Fetch>();
  fetch->url_ = url;
  fetch->priority_ = priority;
  fetch->adopted_ = true;
  fetch->t_initiated_ = sim_.now();
  by_url_[key] = fetch;
  fetches_.push_back(fetch);
  trace_fetch_begin(*fetch);
  if (config_.cached_urls.count(key) != 0) {
    fetch->from_cache_ = true;
    fetch->status_ = 200;
    fetch->complete_ = true;
    fetch->t_complete_ = sim_.now();
    if (config_.trace != nullptr && fetch->trace_id_ != 0) {
      config_.trace->async_end(config_.trace_track, "browser", "fetch",
                               fetch->trace_id_, {{"from_cache", 1}});
    }
    return fetch;
  }
  if (should_delay(*fetch)) {
    delayed_.push_back(fetch);
    return fetch;
  }
  Group& g = group_for(url.host);
  if (config_.use_http1) {
    g.h1_queue.push_back(fetch);
    h1_dispatch(g);
    return fetch;
  }
  if (g.connected) {
    submit(g, fetch);
  } else {
    g.waiting.push_back(fetch);
  }
  return fetch;
}

std::size_t FetchManager::outstanding() const {
  std::size_t n = 0;
  for (const auto& f : fetches_) {
    if (f->adopted_ && !f->complete_) ++n;
  }
  return n;
}

void FetchManager::on_fetch_complete(const std::shared_ptr<Fetch>& fetch) {
  if (fetch->complete_) return;
  fetch->complete_ = true;
  fetch->t_complete_ = sim_.now();
  if (config_.trace != nullptr && fetch->trace_id_ != 0) {
    config_.trace->async_end(
        config_.trace_track, "browser", "fetch", fetch->trace_id_,
        {{"size", fetch->size_},
         {"status", fetch->status_},
         {"type", std::string(http::to_string(fetch->type_))},
         {"pushed", fetch->pushed_ ? 1 : 0},
         {"adopted", fetch->adopted_ ? 1 : 0}});
  }
  auto subscribers = std::move(fetch->subscribers_);
  fetch->subscribers_.clear();
  for (auto& sub : subscribers) {
    if (sub.on_complete) sub.on_complete(*fetch);
  }
  release_delayed();  // the throttle gate may have opened
  if (progress_) progress_();
}

}  // namespace h2push::browser
