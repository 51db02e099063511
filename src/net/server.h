// h2pushd serving core: the live epoll counterpart of the simulator's
// testbed.
//
// N serving threads, each with its own EventLoop and SO_REUSEPORT Listener.
// Every accepted socket becomes a ServerSession: a Transport (buffered
// nonblocking socket, watermark backpressure) driving a server::ReplayServer
// — the same session logic, DATA scheduling, and push policies the
// simulator exercises, now over real TCP. Frames leave the codec through
// h2::Connection::produce_into sized to the transport's write budget, so
// per-connection memory stays bounded no matter how large the pushed
// responses are.
//
// Lifecycle: start() binds and spawns the threads; shutdown() performs a
// graceful drain (stop accepting, GOAWAY on every connection, close as
// streams finish, hard deadline), as triggered by SIGTERM in h2pushd.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/corpus.h"
#include "net/event_loop.h"
#include "net/listener.h"
#include "net/transport.h"
#include "server/replay_server.h"

namespace h2push::net {

struct ServerConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via Server::port()
  int threads = 1;
  /// Must outlive the server.
  const replay::RecordStore* store = nullptr;
  const replay::OriginMap* origins = nullptr;
  /// Push policies by trigger host; a policy that interleaves holds its
  /// own trigger's HTML (server::ReplayServer::Config::policies).
  const std::map<std::string, server::PushPolicy>* policies = nullptr;
  std::string default_authority;

  std::uint64_t header_timeout_ms = 5000;  ///< accept → first request
  std::uint64_t idle_timeout_ms = 60000;   ///< no read/write activity

  /// Non-empty: write a Perfetto JSON timeline per connection into this
  /// directory on close (trace clock = wall ns since server start).
  std::string trace_dir;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t timeouts = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + spawn serving threads. False (with error()) on bind failure.
  bool start();
  std::uint16_t port() const noexcept { return port_; }
  const std::string& error() const noexcept { return error_; }

  /// Graceful drain: stop accepting, GOAWAY every live connection, close
  /// each as its streams finish, force-close at `grace_ms`, join threads.
  /// Idempotent; also called by the destructor with a short grace.
  void shutdown(std::uint64_t grace_ms = 5000);

  ServerStats stats() const;
  int live_connections() const noexcept {
    return live_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;
  class Session;

  ServerConfig config_;
  std::uint16_t port_ = 0;
  std::string error_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  ServerStats final_stats_;  ///< folded worker counters after shutdown()
  std::atomic<int> live_connections_{0};
  std::atomic<bool> shut_down_{false};
  std::uint64_t start_ns_ = 0;
};

}  // namespace h2push::net
