#include "server/h1_replay_server.h"

namespace h2push::server {

H1ReplayServer::H1ReplayServer(Config config) : config_(std::move(config)) {
  http1::ServerConnection::Callbacks cbs;
  cbs.on_request = [this](const http1::MessageParser::Message& request) {
    on_request(request);
  };
  cbs.on_write_ready = [this] {
    if (write_ready_) write_ready_();
  };
  conn_ = std::make_unique<http1::ServerConnection>(std::move(cbs));
}

void H1ReplayServer::on_request(
    const http1::MessageParser::Message& request) {
  const std::string host(http::find_header(request.headers, "host"));
  const auto* exchange = config_.store->find(host, request.target);
  const auto respond = [this, exchange] {
    if (exchange == nullptr) {
      http::Response not_found;
      not_found.status = 404;
      conn_->submit_response(not_found, "");
    } else {
      conn_->submit_response(exchange->response, *exchange->body);
    }
    if (write_ready_) write_ready_();
  };
  if (config_.defer) {
    config_.defer(respond);
  } else {
    respond();
  }
}

}  // namespace h2push::server
