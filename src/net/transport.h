// Buffered nonblocking socket transport with watermark backpressure.
//
// One Transport per TCP connection, owned by the serving/loading session
// object on its loop thread. The read side drains the socket into the
// session callback; the write side buffers frames and flushes
// opportunistically, registering EPOLLOUT only while bytes are pending.
//
// Backpressure contract: the session asks writable_budget() before pulling
// frames out of the H2 codec (Connection::produce) and stops at zero;
// once the kernel drains the buffer below the low watermark the transport
// fires on_drained and the session pulls again. produce() appends whole
// frames and may pass its budget by one frame, at most 16,393 bytes of
// DATA or one of our own control frames, so per-connection memory is
// bounded at high_watermark + one frame + one read chunk regardless of
// response sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "net/buffer.h"
#include "net/event_loop.h"

namespace h2push::net {

class Transport {
 public:
  struct Config {
    std::size_t high_watermark = 256 * 1024;  ///< stop pulling above this
    std::size_t low_watermark = 64 * 1024;    ///< resume pulling below this
    std::size_t read_chunk = 64 * 1024;       ///< per-read syscall size
  };

  struct Handlers {
    /// Bytes arrived from the peer (already removed from the buffer).
    std::function<void(std::span<const std::uint8_t>)> on_read;
    /// Write buffer drained below the low watermark: pull more frames.
    std::function<void()> on_drained;
    /// Peer closed / fatal socket error. The fd is already closed; the
    /// owner should destroy the session (and with it this Transport).
    std::function<void(const std::string& reason)> on_closed;
  };

  /// Takes ownership of connected, nonblocking `fd`.
  Transport(EventLoop& loop, int fd, Config config, Handlers handlers);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Bytes the session may still queue before hitting the high watermark.
  std::size_t writable_budget() const noexcept {
    return out_.size() >= config_.high_watermark
               ? 0
               : config_.high_watermark - out_.size();
  }
  std::size_t pending() const noexcept { return out_.size(); }
  bool open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Append-access for Connection::produce, then call flush(), which
  /// sends what the socket will take right now.
  std::vector<std::uint8_t>& write_tail() noexcept { return out_.tail(); }
  void flush();

  /// Close immediately, firing on_closed(reason) (idempotent).
  void close(const std::string& reason);
  /// Close as soon as the write buffer drains (graceful response end).
  void close_after_flush(const std::string& reason);

  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  void on_events(std::uint32_t events);
  void handle_readable();
  void handle_writable();
  void update_interest();

  EventLoop& loop_;
  int fd_;
  Config config_;
  Handlers handlers_;
  ByteBuffer out_;
  std::vector<std::uint8_t> read_buf_;
  bool want_out_ = false;       // EPOLLOUT currently registered
  bool close_on_drain_ = false;
  bool in_dispatch_ = false;    // guards against close() reentrancy
  std::string deferred_close_reason_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace h2push::net
