#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>

#include "util/posix.h"

namespace h2push::net {
namespace {

std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & EventLoop::kReadable) ev |= EPOLLIN;
  if (interest & EventLoop::kWritable) ev |= EPOLLOUT;
  return ev;
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t out = 0;
  if (ev & (EPOLLIN | EPOLLRDHUP)) out |= EventLoop::kReadable;
  if (ev & EPOLLOUT) out |= EventLoop::kWritable;
  if (ev & (EPOLLERR | EPOLLHUP)) out |= EventLoop::kError;
  return out;
}

}  // namespace

EventLoop::EventLoop() : timers_(clock_ms()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  assert(epoll_fd_ >= 0 && wake_fd_ >= 0);
  now_ms_ = clock_ms();
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  util::posix::close_retry(wake_fd_);
  util::posix::close_retry(epoll_fd_);
}

std::uint64_t EventLoop::clock_ms() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

std::uint64_t EventLoop::clock_ns() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void EventLoop::add_fd(int fd, std::uint32_t interest, FdHandler handler) {
  struct epoll_event ev = {};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  assert(rc == 0);
  (void)rc;
  handlers_[fd] = Registration{std::move(handler), ++generation_};
}

void EventLoop::modify_fd(int fd, std::uint32_t interest) {
  struct epoll_event ev = {};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  if (it->second.generation == dispatching_) {
    retired_ = handlers_.extract(it);  // running: destroy after it returns
  } else {
    handlers_.erase(it);
  }
}

TimerWheel::TimerId EventLoop::schedule(std::uint64_t delay_ms,
                                        TimerWheel::Callback cb) {
  return timers_.schedule(delay_ms, std::move(cb));
}

bool EventLoop::cancel(TimerWheel::TimerId id) { return timers_.cancel(id); }

void EventLoop::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(task));
  }
  wake();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  util::posix::write_retry(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_posted() {
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::stop() {
  stop_requested_.store(true);
  wake();
}

void EventLoop::run() {
  running_.store(true);
  stop_requested_.store(false);
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (!stop_requested_.load()) {
    now_ms_ = clock_ms();
    timers_.advance(now_ms_);
    if (stop_requested_.load()) break;
    std::int64_t timeout = timers_.ms_until_next(now_ms_);
    if (timeout < 0 || timeout > 1000) timeout = 1000;
    const int n = util::posix::epoll_wait_retry(epoll_fd_, events, kMaxEvents,
                                                static_cast<int>(timeout));
    now_ms_ = clock_ms();
    const std::uint64_t batch_generation = generation_;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        util::posix::read_retry(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      // A handler earlier in this batch may have removed this fd (and the
      // fd number may even have been reused by a registration made in the
      // same batch — the generation check drops those stale events too).
      const auto it = handlers_.find(fd);
      if (it == handlers_.end() || it->second.generation > batch_generation) {
        continue;
      }
      dispatching_ = it->second.generation;
      it->second.handler(from_epoll(events[i].events));
      dispatching_ = 0;
      if (retired_) retired_ = {};
    }
    drain_posted();
  }
  drain_posted();
  running_.store(false);
}

}  // namespace h2push::net
