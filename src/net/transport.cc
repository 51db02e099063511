#include "net/transport.h"

#include <cerrno>
#include <cstring>

#include "util/posix.h"

namespace h2push::net {

Transport::Transport(EventLoop& loop, int fd, Config config, Handlers handlers)
    : loop_(loop), fd_(fd), config_(config), handlers_(std::move(handlers)) {
  read_buf_.resize(config_.read_chunk);
  loop_.add_fd(fd_, EventLoop::kReadable,
               [this](std::uint32_t events) { on_events(events); });
}

Transport::~Transport() {
  if (fd_ >= 0) {
    loop_.remove_fd(fd_);
    util::posix::close_retry(fd_);
    fd_ = -1;
  }
}

void Transport::update_interest() {
  const bool want = !out_.empty();
  if (want == want_out_) return;
  want_out_ = want;
  loop_.modify_fd(fd_, EventLoop::kReadable |
                           (want ? EventLoop::kWritable : 0u));
}

void Transport::close(const std::string& reason) {
  if (fd_ < 0) return;
  loop_.remove_fd(fd_);
  util::posix::close_retry(fd_);
  fd_ = -1;
  out_.clear();
  // Deliver on_closed from the loop, not this stack: the owner typically
  // destroys the session (and this Transport) in the callback, which would
  // free the frames currently under our feet.
  if (handlers_.on_closed) {
    loop_.post([cb = handlers_.on_closed, reason] { cb(reason); });
  }
}

void Transport::close_after_flush(const std::string& reason) {
  if (fd_ < 0) return;
  if (out_.empty()) {
    close(reason);
    return;
  }
  close_on_drain_ = true;
  deferred_close_reason_ = reason;
}

void Transport::flush() {
  if (fd_ < 0) return;
  while (!out_.empty()) {
    const auto chunk = out_.readable();
    const ssize_t n =
        util::posix::send_retry(fd_, chunk.data(), chunk.size());
    if (n > 0) {
      out_.consume(static_cast<std::size_t>(n));
      bytes_written_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && util::posix::would_block(errno)) break;
    close(std::string("send: ") +
          (n < 0 ? std::strerror(errno) : "zero write"));
    return;
  }
  if (out_.empty() && close_on_drain_) {
    close(deferred_close_reason_);
    return;
  }
  update_interest();
}

void Transport::on_events(std::uint32_t events) {
  if (events & EventLoop::kError) {
    close("socket error/hup");
    return;
  }
  if (events & EventLoop::kWritable) {
    handle_writable();
    if (fd_ < 0) return;
  }
  if (events & EventLoop::kReadable) handle_readable();
}

void Transport::handle_readable() {
  // Drain in bounded batches: LT epoll re-arms if more is pending, which
  // keeps one busy peer from starving the rest of the loop.
  for (int round = 0; round < 4 && fd_ >= 0; ++round) {
    const ssize_t n =
        util::posix::read_retry(fd_, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      bytes_read_ += static_cast<std::uint64_t>(n);
      if (handlers_.on_read) {
        handlers_.on_read({read_buf_.data(), static_cast<std::size_t>(n)});
      }
      if (static_cast<std::size_t>(n) < read_buf_.size()) return;
      continue;
    }
    if (n == 0) {
      close("peer closed");
      return;
    }
    if (util::posix::would_block(errno)) return;
    close(std::string("read: ") + std::strerror(errno));
    return;
  }
}

void Transport::handle_writable() {
  const bool was_above_low = out_.size() > config_.low_watermark;
  flush();
  if (fd_ < 0) return;
  // The kernel made room: if we crossed back under the low watermark, let
  // the session pull the next batch of frames out of the codec.
  if (was_above_low && out_.size() <= config_.low_watermark &&
      handlers_.on_drained) {
    handlers_.on_drained();
  }
}

}  // namespace h2push::net
