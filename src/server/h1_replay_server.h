// HTTP/1.1 replay server session — the baseline protocol arm. One session
// per TCP connection; requests answered strictly in order from the same
// record store the H2 server uses. No multiplexing, no push: the protocol
// the paper's introduction describes as "designed nearly two decades ago".
#pragma once

#include <functional>
#include <memory>

#include "http1/connection.h"
#include "replay/record.h"

namespace h2push::server {

class H1ReplayServer {
 public:
  struct Config {
    const replay::RecordStore* store = nullptr;
    /// Optional deferral of every response, as ReplayServer::Config::defer.
    std::function<void(std::function<void()>)> defer;
  };

  explicit H1ReplayServer(Config config);

  http1::ServerConnection& connection() { return *conn_; }
  void set_write_ready(std::function<void()> cb) {
    write_ready_ = std::move(cb);
  }

 private:
  void on_request(const http1::MessageParser::Message& request);

  Config config_;
  std::unique_ptr<http1::ServerConnection> conn_;
  std::function<void()> write_ready_;
};

}  // namespace h2push::server
