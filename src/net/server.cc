#include "net/server.h"

#include <cassert>
#include <cstdio>
#include <fstream>

#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "util/posix.h"

namespace h2push::net {

// Per-thread serving state; every member is touched only by the worker's
// loop thread except the atomic stats counters.
struct Server::Worker {
  Server* server = nullptr;
  int index = 0;
  EventLoop loop;
  std::unique_ptr<Listener> listener;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::uint64_t next_session_id = 1;
  bool draining = false;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> timeouts{0};

  void accept(int fd);
  void remove_session(std::uint64_t id);
  void begin_drain();
};

// One live H2 connection: Transport <-> ReplayServer, plus timeouts and an
// optional per-connection Perfetto timeline.
class Server::Session {
 public:
  Session(Worker& worker, std::uint64_t id, int fd)
      : worker_(worker), id_(id) {
    const ServerConfig& cfg = worker_.server->config_;
    if (!cfg.trace_dir.empty()) {
      trace_ = std::make_unique<trace::TraceRecorder>();
      const std::uint64_t t0 = worker_.server->start_ns_;
      trace_->set_clock([t0] {
        return static_cast<sim::Time>(EventLoop::clock_ns() - t0);
      });
      track_ = trace_->register_track(
          "conn-" + std::to_string(worker_.index) + "-" + std::to_string(id));
      trace_->instant(track_, "net", "accept", {{"fd", fd}});
    }

    server::ReplayServer::Config sc;
    sc.store = cfg.store;
    sc.origins = cfg.origins;
    sc.policies = cfg.policies;
    sc.default_authority = cfg.default_authority;
    sc.trace = trace_.get();
    sc.trace_track = track_;
    replay_ = std::make_unique<server::ReplayServer>(std::move(sc));
    replay_->set_write_ready([this] { pump(); });

    Transport::Handlers th;
    th.on_read = [this](std::span<const std::uint8_t> bytes) {
      touch();
      saw_bytes_ = true;
      replay_->connection().receive(bytes);
#ifndef NDEBUG
      // The fuzz subsystem's invariant check, live on every read in debug
      // builds: a violation here is a codec bug, not a peer problem.
      if (auto violation = replay_->connection().check_invariants()) {
        std::fprintf(stderr, "h2 invariant violated: %s\n",
                     violation->c_str());
        assert(false && "h2::Connection invariant violated");
      }
#endif
      pump();
    };
    th.on_drained = [this] {
      touch();
      pump();
    };
    th.on_closed = [this](const std::string& reason) { closed(reason); };
    transport_ = std::make_unique<Transport>(
        worker_.loop, fd, Transport::Config{}, std::move(th));
    last_activity_ms_ = worker_.loop.now_ms();
    if (cfg.header_timeout_ms > 0) {
      header_timer_ = worker_.loop.schedule(cfg.header_timeout_ms, [this] {
        header_timer_ = 0;
        if (!saw_bytes_) {
          worker_.timeouts.fetch_add(1, std::memory_order_relaxed);
          transport_->close("header timeout");
        }
      });
    }
    if (cfg.idle_timeout_ms > 0) arm_idle_timer(cfg.idle_timeout_ms);
    pump();  // server preface + SETTINGS
  }

  ~Session() {
    if (header_timer_ != 0) worker_.loop.cancel(header_timer_);
    if (idle_timer_ != 0) worker_.loop.cancel(idle_timer_);
    worker_.requests.fetch_add(replay_->requests_served(),
                               std::memory_order_relaxed);
    worker_.bytes_written.fetch_add(transport_->bytes_written(),
                                    std::memory_order_relaxed);
    if (trace_) {
      trace_->instant(track_, "net", "close",
                      {{"bytes_in", transport_->bytes_read()},
                       {"bytes_out", transport_->bytes_written()}});
      write_trace_file();
    }
  }

  void begin_drain() {
    draining_ = true;
    replay_->connection().submit_goaway();
    pump();
  }

 private:
  /// Move frames codec → socket buffer while the watermark allows.
  void pump() {
    while (transport_->open()) {
      const std::size_t budget = transport_->writable_budget();
      if (budget == 0) break;
      const std::size_t produced = replay_->connection().produce_into(
          transport_->write_tail(), budget);
      if (produced == 0) break;
      touch();
      transport_->flush();
    }
    if (draining_ && transport_->open() &&
        replay_->connection().send_quiescent() && transport_->pending() == 0) {
      transport_->close("drained");
    }
  }

  void touch() { last_activity_ms_ = worker_.loop.now_ms(); }

  void arm_idle_timer(std::uint64_t timeout_ms) {
    idle_timer_ = worker_.loop.schedule(timeout_ms, [this, timeout_ms] {
      idle_timer_ = 0;
      const std::uint64_t now = worker_.loop.now_ms();
      const std::uint64_t idle = now - last_activity_ms_;
      if (idle >= timeout_ms) {
        worker_.timeouts.fetch_add(1, std::memory_order_relaxed);
        transport_->close("idle timeout");
        return;
      }
      arm_idle_timer(timeout_ms - idle);
    });
  }

  void closed(const std::string& reason) {
    if (trace_) {
      trace_->instant(track_, "net", "closed", {{"reason", reason}});
    }
    worker_.remove_session(id_);  // destroys this
  }

  void write_trace_file() {
    const std::string path = worker_.server->config_.trace_dir + "/conn-" +
                             std::to_string(worker_.index) + "-" +
                             std::to_string(id_) + ".json";
    std::ofstream out(path);
    if (out) out << trace::to_chrome_trace_json(*trace_);
  }

  Worker& worker_;
  std::uint64_t id_;
  std::unique_ptr<trace::TraceRecorder> trace_;
  std::uint32_t track_ = 0;
  std::unique_ptr<server::ReplayServer> replay_;
  std::unique_ptr<Transport> transport_;
  TimerWheel::TimerId header_timer_ = 0;
  TimerWheel::TimerId idle_timer_ = 0;
  std::uint64_t last_activity_ms_ = 0;
  bool saw_bytes_ = false;
  bool draining_ = false;
};

void Server::Worker::accept(int fd) {
  if (draining) {
    util::posix::close_retry(fd);
    return;
  }
  accepted.fetch_add(1, std::memory_order_relaxed);
  server->live_connections_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = next_session_id++;
  sessions.emplace(id, std::make_unique<Session>(*this, id, fd));
}

void Server::Worker::remove_session(std::uint64_t id) {
  if (sessions.erase(id) > 0) {
    closed.fetch_add(1, std::memory_order_relaxed);
    server->live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (draining && sessions.empty()) loop.stop();
}

void Server::Worker::begin_drain() {
  draining = true;
  if (listener) listener->close();
  // begin_drain → pump may close a session, mutating `sessions`; walk ids.
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions.size());
  for (const auto& [id, session] : sessions) ids.push_back(id);
  for (const auto id : ids) {
    const auto it = sessions.find(id);
    if (it != sessions.end()) it->second->begin_drain();
  }
  if (sessions.empty()) loop.stop();
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { shutdown(200); }

bool Server::start() {
  util::posix::ignore_sigpipe();
  start_ns_ = EventLoop::clock_ns();
  const int threads = config_.threads > 0 ? config_.threads : 1;
  for (int i = 0; i < threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    worker->index = i;
    // First worker binds the (possibly ephemeral) port; the rest join it
    // via SO_REUSEPORT. Bind before run() so port() is valid on return.
    const std::uint16_t port = i == 0 ? config_.port : port_;
    auto* w = worker.get();
    worker->listener = std::make_unique<Listener>(
        worker->loop, config_.bind_addr, port, [w](int fd) { w->accept(fd); });
    if (!worker->listener->valid()) {
      error_ = worker->listener->last_error();
      workers_.clear();
      return false;
    }
    if (i == 0) port_ = worker->listener->port();
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads_.emplace_back([w = worker.get()] { w->loop.run(); });
  }
  return true;
}

void Server::shutdown(std::uint64_t grace_ms) {
  if (shut_down_.exchange(true)) return;
  for (auto& worker : workers_) {
    auto* w = worker.get();
    w->loop.post([w, grace_ms] {
      w->begin_drain();
      w->loop.schedule(grace_ms, [w] { w->loop.stop(); });
    });
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Destroy surviving sessions first (their destructors fold per-session
  // counters into the worker atomics), then snapshot so stats() keeps
  // answering after the workers are gone.
  for (auto& worker : workers_) worker->sessions.clear();
  final_stats_ = stats();
  workers_.clear();
}

ServerStats Server::stats() const {
  ServerStats total = final_stats_;
  for (const auto& worker : workers_) {
    total.connections_accepted +=
        worker->accepted.load(std::memory_order_relaxed);
    total.connections_closed += worker->closed.load(std::memory_order_relaxed);
    total.requests_served += worker->requests.load(std::memory_order_relaxed);
    total.bytes_written +=
        worker->bytes_written.load(std::memory_order_relaxed);
    total.timeouts += worker->timeouts.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace h2push::net
