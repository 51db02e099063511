#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>

#include "h2/connection.h"
#include "http/message.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "util/posix.h"

namespace h2push::net {
namespace {

// fetch_urls(): requests in flight at once, and the deadline for the whole
// fetch.
constexpr std::size_t kFetchMaxConcurrentStreams = 32;
constexpr std::uint64_t kFetchTimeoutMs = 30000;
// run_load(): latency samples kept per worker. Excess completions still
// count, they just stop being sampled.
constexpr std::size_t kLatencySampleCap = 1u << 20;

int open_tcp_socket(const std::string& addr, std::uint16_t port,
                    bool nonblocking, std::string* error) {
  const int fd = ::socket(
      AF_INET, SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
      0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in sa = {};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    *error = "bad address: " + addr;
    util::posix::close_retry(fd);
    return -1;
  }
  if (util::posix::connect_retry(fd, reinterpret_cast<sockaddr*>(&sa),
                                 sizeof(sa)) < 0 &&
      errno != EINPROGRESS) {
    *error = std::string("connect: ") + std::strerror(errno);
    util::posix::close_retry(fd);
    return -1;
  }
  util::posix::set_tcp_nodelay(fd);
  return fd;
}

http::HeaderBlock request_headers(const std::string& host,
                                  const std::string& path) {
  http::Request req;
  req.url = http::Url{"https", host, 443, path};
  return req.to_h2_headers();
}

}  // namespace

util::Expected<std::map<std::pair<std::string, std::string>, FetchedResponse>,
               std::string>
fetch_urls(const std::string& addr, std::uint16_t port,
           const std::vector<std::pair<std::string, std::string>>& urls,
           const FetchOptions& options) {
  using Key = std::pair<std::string, std::string>;
  util::posix::ignore_sigpipe();
  std::string error;
  const int fd = open_tcp_socket(addr, port, /*nonblocking=*/false, &error);
  if (fd < 0) return util::make_unexpected(error);
  util::posix::set_nonblocking(fd);

  std::map<Key, FetchedResponse> results;
  std::map<std::uint32_t, Key> stream_to_url;
  std::map<std::uint32_t, bool> stream_pushed;
  std::size_t requests_done = 0;
  std::size_t pushes_open = 0;
  std::string conn_error;

  h2::Connection::Config cc;
  cc.role = h2::Role::kClient;
  cc.enable_push = options.enable_push;
  // A wide receive window so loopback fetches are never window-bound (the
  // Chromium-like posture the simulator's browser uses).
  cc.connection_window_bonus = 16 * 1024 * 1024;
  h2::Connection::Callbacks cbs;
  cbs.on_headers = [&](std::uint32_t stream, http::HeaderBlock headers,
                       bool /*end_stream*/) {
    const auto it = stream_to_url.find(stream);
    if (it == stream_to_url.end()) return;
    results[it->second].status = std::atoi(
        std::string(http::find_header(headers, ":status")).c_str());
  };
  cbs.on_data = [&](std::uint32_t stream, std::span<const std::uint8_t> data,
                    bool /*end_stream*/) {
    const auto it = stream_to_url.find(stream);
    if (it == stream_to_url.end()) return;
    results[it->second].body.append(
        reinterpret_cast<const char*>(data.data()), data.size());
  };
  cbs.on_push_promise = [&](std::uint32_t /*parent*/, std::uint32_t promised,
                            http::HeaderBlock headers) {
    const Key key{std::string(http::find_header(headers, ":authority")),
                  std::string(http::find_header(headers, ":path"))};
    stream_to_url[promised] = key;
    stream_pushed[promised] = true;
    results[key].pushed = true;
    ++pushes_open;
  };
  cbs.on_stream_closed = [&](std::uint32_t stream) {
    const auto it = stream_pushed.find(stream);
    if (it != stream_pushed.end() && it->second) {
      --pushes_open;
    } else if (stream_to_url.count(stream) > 0) {
      ++requests_done;
    }
  };
  cbs.on_connection_error = [&](const std::string& message) {
    conn_error = message;
  };
  h2::Connection conn(cc, std::move(cbs));
  conn.start();

  std::size_t next_url = 0;
  std::size_t in_flight = 0;
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> in(64 * 1024);
  const std::uint64_t deadline =
      EventLoop::clock_ms() + kFetchTimeoutMs;

  while (requests_done < urls.size() || pushes_open > 0) {
    if (!conn_error.empty()) {
      util::posix::close_retry(fd);
      return util::make_unexpected("connection error: " + conn_error);
    }
    if (EventLoop::clock_ms() > deadline) {
      util::posix::close_retry(fd);
      return util::make_unexpected("fetch timeout");
    }
    while (next_url < urls.size() &&
           in_flight < kFetchMaxConcurrentStreams) {
      const auto& [host, path] = urls[next_url];
      const std::uint32_t id =
          conn.submit_request(request_headers(host, path));
      stream_to_url[id] = urls[next_url];
      ++next_url;
      ++in_flight;
    }
    // Recount in-flight request streams (odd ids) so completions free slots.
    in_flight = 0;
    for (const auto& [stream, key] : stream_to_url) {
      (void)key;
      if (stream % 2 == 1 &&
          conn.stream_state(stream) != h2::StreamState::kClosed) {
        ++in_flight;
      }
    }
    while (conn.want_write()) {
      out.clear();
      conn.produce_into(out, 256 * 1024);
      if (out.empty()) break;
      std::size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t n = util::posix::send_retry(fd, out.data() + sent,
                                                  out.size() - sent);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && util::posix::would_block(errno)) {
          struct pollfd pw = {fd, POLLOUT, 0};
          util::posix::poll_retry(&pw, 1, 100);
          continue;
        }
        util::posix::close_retry(fd);
        return util::make_unexpected(std::string("send: ") +
                                     std::strerror(errno));
      }
    }
    struct pollfd pr = {fd, POLLIN, 0};
    const int ready = util::posix::poll_retry(&pr, 1, 50);
    if (ready > 0) {
      const ssize_t n = util::posix::read_retry(fd, in.data(), in.size());
      if (n > 0) {
        conn.receive({in.data(), static_cast<std::size_t>(n)});
      } else if (n == 0) {
        util::posix::close_retry(fd);
        return util::make_unexpected("peer closed before completion");
      } else if (!util::posix::would_block(errno)) {
        util::posix::close_retry(fd);
        return util::make_unexpected(std::string("read: ") +
                                     std::strerror(errno));
      }
    }
  }
  util::posix::close_retry(fd);
  return results;
}

namespace {

/// One closed-loop load connection on a worker's event loop.
class LoadConnection {
 public:
  struct Shared {
    const LoadConfig* config = nullptr;
    EventLoop* loop = nullptr;
    std::size_t next_url = 0;  // round-robin cursor, worker-local
    bool deadline_passed = false;
    std::uint64_t requests_ok = 0;
    std::uint64_t requests_failed = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t connection_errors = 0;
    std::uint64_t push_promises = 0;
    std::uint64_t bytes_read = 0;
    std::vector<double> latency_ms;
    int live = 0;  // open LoadConnections on this worker
  };

  LoadConnection(Shared& shared, int fd) : shared_(shared) {
    ++shared_.connections_opened;
    ++shared_.live;
    h2::Connection::Config cc;
    cc.role = h2::Role::kClient;
    cc.enable_push = shared_.config->enable_push;
    cc.connection_window_bonus = 16 * 1024 * 1024;
    h2::Connection::Callbacks cbs;
    cbs.on_push_promise = [this](std::uint32_t, std::uint32_t,
                                 http::HeaderBlock) {
      ++shared_.push_promises;
    };
    cbs.on_stream_closed = [this](std::uint32_t stream) {
      on_stream_done(stream);
    };
    cbs.on_connection_error = [this](const std::string&) {
      ++shared_.connection_errors;
    };
    conn_ = std::make_unique<h2::Connection>(cc, std::move(cbs));
    conn_->start();

    Transport::Config tc;
    Transport::Handlers th;
    th.on_read = [this](std::span<const std::uint8_t> bytes) {
      shared_.bytes_read += bytes.size();
      conn_->receive(bytes);
      pump();
    };
    th.on_drained = [this] { pump(); };
    th.on_closed = [this](const std::string&) {
      // Streams still in flight when the peer vanished count as failures.
      shared_.requests_failed += started_.size();
      started_.clear();
      --shared_.live;
      dead_ = true;
      if (shared_.live == 0) shared_.loop->stop();
    };
    transport_ = std::make_unique<Transport>(*shared_.loop, fd, tc,
                                             std::move(th));
    fill_pipeline();
    pump();
  }

  bool dead() const noexcept { return dead_; }

  void finish() {
    // Deadline: stop submitting; close once the last response lands.
    if (started_.empty()) transport_->close("deadline");
  }

 private:
  void fill_pipeline() {
    const auto& urls = *shared_.config->urls;
    while (!shared_.deadline_passed &&
           started_.size() <
               static_cast<std::size_t>(
                   shared_.config->max_concurrent_streams)) {
      const auto& [host, path] = urls[shared_.next_url];
      shared_.next_url = (shared_.next_url + 1) % urls.size();
      const std::uint32_t id =
          conn_->submit_request(request_headers(host, path));
      started_[id] = EventLoop::clock_ns();
    }
  }

  void on_stream_done(std::uint32_t stream) {
    const auto it = started_.find(stream);
    if (it == started_.end()) return;  // pushed stream
    ++shared_.requests_ok;
    if (shared_.latency_ms.size() < kLatencySampleCap) {
      shared_.latency_ms.push_back(
          static_cast<double>(EventLoop::clock_ns() - it->second) / 1e6);
    }
    started_.erase(it);
    if (shared_.deadline_passed) {
      if (started_.empty()) transport_->close("deadline");
      return;
    }
    fill_pipeline();
    pump();
  }

  void pump() {
    while (transport_->open()) {
      const std::size_t budget = transport_->writable_budget();
      if (budget == 0) break;
      if (conn_->produce_into(transport_->write_tail(), budget) == 0) break;
      transport_->flush();
    }
  }

  Shared& shared_;
  std::unique_ptr<h2::Connection> conn_;
  std::unique_ptr<Transport> transport_;
  std::map<std::uint32_t, std::uint64_t> started_;  // stream → t0 (ns)
  bool dead_ = false;
};

}  // namespace

LoadResult run_load(const LoadConfig& config) {
  util::posix::ignore_sigpipe();
  LoadResult total;
  if (config.urls == nullptr || config.urls->empty() ||
      config.connections <= 0) {
    return total;
  }
  const int threads = config.threads > 0 ? config.threads : 1;
  std::vector<LoadConnection::Shared> worker_state(
      static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  const std::uint64_t start_ns = EventLoop::clock_ns();

  for (int t = 0; t < threads; ++t) {
    // Connections are distributed round-robin across worker threads.
    int conns = config.connections / threads +
                (t < config.connections % threads ? 1 : 0);
    if (conns == 0) {
      worker_state[static_cast<std::size_t>(t)].config = &config;
      continue;
    }
    workers.emplace_back([&config, &worker_state, t, conns] {
      auto& shared = worker_state[static_cast<std::size_t>(t)];
      EventLoop loop;
      shared.config = &config;
      shared.loop = &loop;
      // Stagger the round-robin start so workers don't hammer one URL.
      shared.next_url = static_cast<std::size_t>(t) % config.urls->size();
      std::vector<std::unique_ptr<LoadConnection>> conns_owned;
      for (int c = 0; c < conns; ++c) {
        std::string error;
        const int fd = open_tcp_socket(config.addr, config.port,
                                       /*nonblocking=*/true, &error);
        if (fd < 0) {
          ++shared.connection_errors;
          continue;
        }
        conns_owned.push_back(std::make_unique<LoadConnection>(shared, fd));
      }
      if (conns_owned.empty()) return;
      loop.schedule(static_cast<std::uint64_t>(config.duration_s * 1000.0),
                    [&shared, &conns_owned] {
                      shared.deadline_passed = true;
                      for (auto& conn : conns_owned) {
                        if (!conn->dead()) conn->finish();
                      }
                    });
      // Hard stop 2 s past the deadline in case a peer never answers.
      loop.schedule(
          static_cast<std::uint64_t>(config.duration_s * 1000.0) + 2000,
          [&loop] { loop.stop(); });
      loop.run();
    });
  }
  for (auto& worker : workers) worker.join();
  total.elapsed_s =
      static_cast<double>(EventLoop::clock_ns() - start_ns) / 1e9;
  for (const auto& shared : worker_state) {
    total.requests_ok += shared.requests_ok;
    total.requests_failed += shared.requests_failed;
    total.connections_opened += shared.connections_opened;
    total.connection_errors += shared.connection_errors;
    total.push_promises += shared.push_promises;
    total.bytes_read += shared.bytes_read;
    total.latency_ms.insert(total.latency_ms.end(), shared.latency_ms.begin(),
                            shared.latency_ms.end());
  }
  return total;
}

}  // namespace h2push::net
