// Nonblocking epoll event loop — one instance per serving thread.
//
// Level-triggered epoll over registered fds, a hashed timer wheel for
// coarse timeouts, an eventfd for cross-thread wakeups, and a post() queue
// so other threads can marshal work onto the loop thread (the only thread
// that touches connections). run() owns the thread until stop().
//
// Level-triggered is a deliberate choice over edge-triggered: the H2 write
// path already batches (produce fills the socket buffer to its
// watermark), so the extra epoll_wait returns LT costs are negligible,
// and LT removes the entire starved-wakeup class of bugs that ET + partial
// reads invite.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/timer_wheel.h"

namespace h2push::net {

class EventLoop {
 public:
  /// Bitmask passed to fd handlers; values match EPOLLIN/EPOLLOUT intent.
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;  ///< EPOLLERR/EPOLLHUP

  using FdHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for the given interest set (kReadable|kWritable). The
  /// loop does not own the fd; unregister before closing it.
  void add_fd(int fd, std::uint32_t interest, FdHandler handler);
  void modify_fd(int fd, std::uint32_t interest);
  void remove_fd(int fd);

  /// Arm a one-shot timer on the loop thread. Safe only from the loop
  /// thread (use post() from others).
  TimerWheel::TimerId schedule(std::uint64_t delay_ms, TimerWheel::Callback cb);
  bool cancel(TimerWheel::TimerId id);

  /// Enqueue `task` to run on the loop thread; safe from any thread.
  void post(Task task);

  /// Dispatch events until stop(). Reentrant-safe handlers: an fd removed
  /// during dispatch is not fired afterwards in the same batch.
  void run();
  /// Ask run() to return; safe from any thread (and from handlers).
  void stop();

  bool running() const noexcept { return running_.load(); }

  /// Monotonic milliseconds (CLOCK_MONOTONIC), cached per dispatch batch.
  std::uint64_t now_ms() const noexcept { return now_ms_; }
  static std::uint64_t clock_ms() noexcept;
  /// Monotonic nanoseconds, uncached — latency timestamps, trace clocks.
  static std::uint64_t clock_ns() noexcept;

  std::size_t fd_count() const noexcept { return handlers_.size(); }

 private:
  void wake();
  void drain_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::uint64_t now_ms_ = 0;
  TimerWheel timers_;

  // Generation guard: handlers erased mid-batch must not fire from stale
  // epoll_event entries pointing at freed state.
  struct Registration {
    FdHandler handler;
    std::uint64_t generation = 0;
  };
  std::unordered_map<int, Registration> handlers_;
  std::uint64_t generation_ = 0;
  // The registration whose handler is running (0 outside fd dispatch). A
  // handler that removes its own fd is destroyed only after it returns: its
  // node waits in retired_, so a re-added fd keeps its new handler.
  std::uint64_t dispatching_ = 0;
  std::unordered_map<int, Registration>::node_type retired_;

  std::mutex posted_mu_;
  std::vector<Task> posted_;
};

}  // namespace h2push::net
