// The testbed's client transport: one simulated TCP session between the
// browser and a replay server.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <type_traits>

#include "browser/fetch.h"
#include "server/h1_replay_server.h"
#include "server/replay_server.h"
#include "sim/tcp.h"
#include "util/piece.h"

namespace h2push::core {

/// One client↔server TCP session: the browser-facing ClientTransport plus
/// the server endpoint it terminates at — a ReplayServer (HTTP/2) or an
/// H1ReplayServer (the HTTP/1.1 baseline arm).
template <typename Server>
class SimTransport final : public browser::ClientTransport {
 public:
  SimTransport(sim::Simulator& sim, sim::Route up, sim::Route down,
               typename Server::Config server_config,
               trace::TraceRecorder* trace, std::uint32_t trace_track,
               sim::Time connect_stagger)
      : sim_(sim), server_(std::move(server_config)),
        connect_stagger_(connect_stagger) {
    sim::TcpConnection::Callbacks callbacks;
    callbacks.on_connected = [this] {
      if (on_connected_) on_connected_();
    };
    callbacks.on_accepted = [this] { pump_server(); };
    // Both servers write into the TCP send buffer, and the HTTP/2 one
    // keeps response bodies by reference there. Deliveries differ: the
    // HTTP/2 parsers read pieces in place, the HTTP/1.1 ones read each
    // delivery flattened, as one span.
    if constexpr (std::is_same_v<Server, server::ReplayServer>) {
      callbacks.on_deliver = [this](sim::TcpConnection::Side side,
                                    std::span<const util::Piece> pieces) {
        if (side == sim::TcpConnection::Side::kServer) {
          server_.connection().receive(pieces);
          pump_server();
        } else if (receiver_) {
          receiver_(pieces);
        }
      };
    } else {
      callbacks.on_receive = [this](sim::TcpConnection::Side side,
                                    std::span<const std::uint8_t> bytes) {
        if (side == sim::TcpConnection::Side::kServer) {
          server_.connection().receive(bytes);
          pump_server();
        } else if (receiver_) {
          const util::Piece piece{bytes};
          receiver_(std::span<const util::Piece>(&piece, 1));
        }
      };
    }
    callbacks.on_writable = [this](sim::TcpConnection::Side side) {
      if (side == sim::TcpConnection::Side::kServer) {
        pump_server();
      } else if (writable_cb_) {
        writable_cb_();
      }
    };
    tcp_ = std::make_unique<sim::TcpConnection>(sim_, sim::TcpConfig{}, up,
                                                down, std::move(callbacks));
    if (trace != nullptr) {
      // TCP counters share the server session's track: cwnd next to frames.
      tcp_->set_trace(trace, trace_track);
    }
    server_.set_write_ready([this] { pump_server(); });
  }

  void connect(std::function<void()> on_connected) override {
    on_connected_ = std::move(on_connected);
    // DNS lookup + socket setup take a few milliseconds even against local
    // resolvers; this also de-correlates the SYN burst a many-origin page
    // would otherwise fire into the access link in a single instant.
    if (connect_stagger_ > 0) {
      sim_.schedule_in(connect_stagger_, [this] { tcp_->connect(); });
    } else {
      tcp_->connect();
    }
  }
  std::size_t write(const browser::ClientTransport::Produce& produce)
      override {
    return tcp_->write(sim::TcpConnection::Side::kClient,
                       [&produce](util::PieceSink& out) {
                         produce(out, sim::kWriteWatermark);
                       });
  }
  bool writable() const override {
    return tcp_->writable(sim::TcpConnection::Side::kClient);
  }
  void set_receiver(
      std::function<void(std::span<const util::Piece>)> receiver) override {
    receiver_ = std::move(receiver);
  }
  void set_writable_callback(std::function<void()> cb) override {
    writable_cb_ = std::move(cb);
  }
  sim::Time connect_end_time() const override {
    return tcp_->connect_end_time();
  }

  const sim::TcpConnection& tcp() const { return *tcp_; }

 private:
  void pump_server() {
    auto& conn = server_.connection();
    while (tcp_->writable(sim::TcpConnection::Side::kServer) &&
           conn.want_write()) {
      if (tcp_->write(sim::TcpConnection::Side::kServer,
                      [&conn](util::PieceSink& out) {
                        conn.produce(out, sim::kWriteWatermark);
                      }) == 0) {
        break;
      }
    }
  }

  sim::Simulator& sim_;
  Server server_;
  std::unique_ptr<sim::TcpConnection> tcp_;
  sim::Time connect_stagger_ = 0;
  std::function<void()> on_connected_;
  std::function<void(std::span<const util::Piece>)> receiver_;
  std::function<void()> writable_cb_;
};

}  // namespace h2push::core
