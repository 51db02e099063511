// src/net building-block tests: ByteBuffer cursor/compaction, TimerWheel
// ordering and cancellation (including deadlines beyond one wheel
// revolution), EventLoop timers/post/fd dispatch, Listener accept over real
// loopback TCP, and Transport watermark backpressure over a socketpair.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "net/buffer.h"
#include "net/event_loop.h"
#include "net/listener.h"
#include "net/timer_wheel.h"
#include "net/transport.h"
#include "util/posix.h"

namespace h2push::net {
namespace {

std::span<const std::uint8_t> as_bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

// --- ByteBuffer ---

TEST(ByteBufferTest, AppendConsumeRoundTrip) {
  ByteBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.append(as_bytes("hello "));
  buf.append(as_bytes("world"));
  EXPECT_EQ(11u, buf.size());
  const auto view = buf.readable();
  EXPECT_EQ("hello world",
            std::string(reinterpret_cast<const char*>(view.data()),
                        view.size()));
  buf.consume(6);
  EXPECT_EQ(5u, buf.size());
  const auto rest = buf.readable();
  EXPECT_EQ("world", std::string(reinterpret_cast<const char*>(rest.data()),
                                 rest.size()));
  buf.consume(5);
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBufferTest, CompactionPreservesContent) {
  ByteBuffer buf;
  std::vector<std::uint8_t> block(8192);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  buf.append(block);
  buf.consume(6000);  // dead prefix > 4096 and > live bytes: compacts
  ASSERT_EQ(block.size() - 6000, buf.size());
  const auto view = buf.readable();
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>((6000 + i) & 0xff), view[i]);
  }
}

TEST(ByteBufferTest, TailAppendIsVisible) {
  ByteBuffer buf;
  buf.append(as_bytes("ab"));
  buf.consume(1);
  auto& tail = buf.tail();
  tail.push_back('c');
  EXPECT_EQ(2u, buf.size());
  const auto view = buf.readable();
  EXPECT_EQ("bc", std::string(reinterpret_cast<const char*>(view.data()),
                              view.size()));
}

// --- TimerWheel ---

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel(0);
  std::vector<int> fired;
  wheel.schedule(30, [&] { fired.push_back(3); });
  wheel.schedule(10, [&] { fired.push_back(1); });
  wheel.schedule(20, [&] { fired.push_back(2); });
  wheel.advance(5);
  EXPECT_TRUE(fired.empty());
  wheel.advance(100);
  EXPECT_EQ((std::vector<int>{1, 2, 3}), fired);
  EXPECT_EQ(0u, wheel.armed());
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerWheel wheel(0);
  bool fired = false;
  const auto id = wheel.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already gone
  wheel.advance(100);
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, DeadlineBeyondOneRevolutionDoesNotFireEarly) {
  TimerWheel wheel(0);
  bool fired = false;
  // 1000 ms > 256 slots: the same slot is visited ~3 times before the
  // deadline; the entry must survive the early visits.
  wheel.schedule(1000, [&] { fired = true; });
  for (std::uint64_t t = 50; t < 1000; t += 50) {
    wheel.advance(t);
    EXPECT_FALSE(fired) << "fired early at t=" << t;
  }
  wheel.advance(1000);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, MsUntilNextBoundsSleep) {
  TimerWheel wheel(0);
  EXPECT_EQ(-1, wheel.ms_until_next(0));
  wheel.schedule(40, [] {});
  const auto wait = wheel.ms_until_next(0);
  EXPECT_GE(wait, 0);
  EXPECT_LE(wait, 40);
}

TEST(TimerWheelTest, ScheduleFromCallbackLandsInFuture) {
  TimerWheel wheel(0);
  bool second = false;
  wheel.schedule(5, [&] { wheel.schedule(5, [&] { second = true; }); });
  wheel.advance(5);
  EXPECT_FALSE(second);
  wheel.advance(10);
  EXPECT_TRUE(second);
}

// --- EventLoop ---

TEST(EventLoopTest, TimerFiresAndStops) {
  EventLoop loop;
  bool fired = false;
  loop.schedule(10, [&] {
    fired = true;
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, PostFromAnotherThreadRunsOnLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    loop.post([&] {
      ran.store(true);
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoopTest, FdReadableDispatch) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  util::posix::set_nonblocking(fds[0]);
  std::string got;
  loop.add_fd(fds[0], EventLoop::kReadable, [&](std::uint32_t events) {
    ASSERT_TRUE(events & EventLoop::kReadable);
    char buf[16];
    const ssize_t n = util::posix::read_retry(fds[0], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.assign(buf, static_cast<std::size_t>(n));
    loop.remove_fd(fds[0]);
    loop.stop();
  });
  ASSERT_EQ(4, util::posix::write_retry(fds[1], "ping", 4));
  loop.run();
  EXPECT_EQ("ping", got);
  util::posix::close_retry(fds[0]);
  util::posix::close_retry(fds[1]);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  EventLoop loop;
  bool cancelled_fired = false;
  const auto id = loop.schedule(5, [&] { cancelled_fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.schedule(20, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(cancelled_fired);
}

// --- Listener ---

TEST(ListenerTest, EphemeralBindAcceptsLoopbackConnection) {
  EventLoop loop;
  int accepted_fd = -1;
  Listener listener(loop, "127.0.0.1", 0, [&](int fd) {
    accepted_fd = fd;
    loop.stop();
  });
  ASSERT_TRUE(listener.valid()) << listener.last_error();
  ASSERT_NE(0, listener.port());

  std::thread client([port = listener.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(0, util::posix::connect_retry(
                     fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)));
    util::posix::close_retry(fd);
  });
  loop.run();
  client.join();
  EXPECT_GE(accepted_fd, 0);
  util::posix::close_retry(accepted_fd);
}

TEST(ListenerTest, ReuseportAllowsTwoListenersOnOnePort) {
  EventLoop loop;
  Listener first(loop, "127.0.0.1", 0, [](int fd) {
    util::posix::close_retry(fd);
  });
  ASSERT_TRUE(first.valid()) << first.last_error();
  Listener second(loop, "127.0.0.1", first.port(), [](int fd) {
    util::posix::close_retry(fd);
  });
  EXPECT_TRUE(second.valid()) << second.last_error();
  EXPECT_EQ(first.port(), second.port());
}

// --- Transport ---

struct TransportPair {
  EventLoop loop;
  int peer_fd = -1;  // the raw far end, driven directly by the test
  std::unique_ptr<Transport> transport;
  std::string read_back;
  std::string close_reason;
  bool closed = false;
  int drained = 0;

  explicit TransportPair(Transport::Config config = {}) {
    int sv[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    peer_fd = sv[1];
    util::posix::set_nonblocking(sv[0]);
    Transport::Handlers handlers;
    handlers.on_read = [this](std::span<const std::uint8_t> bytes) {
      read_back.append(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size());
    };
    handlers.on_drained = [this] { ++drained; };
    handlers.on_closed = [this](const std::string& reason) {
      closed = true;
      close_reason = reason;
      loop.stop();
    };
    transport = std::make_unique<Transport>(loop, sv[0], config,
                                            std::move(handlers));
  }

  ~TransportPair() {
    if (peer_fd >= 0) util::posix::close_retry(peer_fd);
  }

  /// Queue bytes the way a session does (append to the write tail, then
  /// flush what the socket will take).
  void write(std::span<const std::uint8_t> bytes) {
    auto& tail = transport->write_tail();
    tail.insert(tail.end(), bytes.begin(), bytes.end());
    transport->flush();
  }
};

TEST(TransportTest, WriteReachesPeer) {
  TransportPair pair;
  pair.loop.post([&] {
    pair.write(as_bytes("frame-bytes"));
    pair.loop.schedule(50, [&] { pair.loop.stop(); });
  });
  pair.loop.run();
  char buf[64] = {};
  const ssize_t n =
      util::posix::read_retry(pair.peer_fd, buf, sizeof(buf));
  EXPECT_EQ(11, n);
  EXPECT_STREQ("frame-bytes", buf);
}

TEST(TransportTest, ReadDeliversPeerBytes) {
  TransportPair pair;
  ASSERT_EQ(5, util::posix::write_retry(pair.peer_fd, "hello", 5));
  pair.loop.schedule(50, [&] { pair.loop.stop(); });
  pair.loop.run();
  EXPECT_EQ("hello", pair.read_back);
}

TEST(TransportTest, PeerCloseFiresOnClosed) {
  TransportPair pair;
  util::posix::close_retry(pair.peer_fd);
  pair.peer_fd = -1;
  pair.loop.schedule(1000, [&] { pair.loop.stop(); });  // failsafe
  pair.loop.run();
  EXPECT_TRUE(pair.closed);
  EXPECT_FALSE(pair.transport->open());
}

TEST(TransportTest, WritableBudgetTracksWatermark) {
  Transport::Config config;
  config.high_watermark = 1024;
  config.low_watermark = 256;
  TransportPair pair(config);
  pair.loop.post([&] {
    EXPECT_EQ(1024u, pair.transport->writable_budget());
    // A socketpair absorbs small writes instantly, so the budget right
    // after a flushed write returns to the full watermark.
    pair.write(as_bytes("x"));
    EXPECT_LE(pair.transport->pending(), 1u);
    pair.loop.stop();
  });
  pair.loop.run();
}

TEST(TransportTest, BackpressureDrainsAndResumes) {
  Transport::Config config;
  config.high_watermark = 64 * 1024;
  config.low_watermark = 8 * 1024;
  TransportPair pair(config);
  // Fill well past what the kernel socket buffer will take so EPOLLOUT
  // machinery and on_drained engage.
  const std::vector<std::uint8_t> chunk(256 * 1024, 0xab);
  std::atomic<bool> started{false};
  pair.loop.post([&] {
    pair.write(chunk);
    started.store(true);
  });
  std::thread drain([&] {
    while (!started.load()) std::this_thread::yield();
    std::vector<char> sink(64 * 1024);
    std::size_t total = 0;
    while (total < chunk.size()) {
      const ssize_t n = util::posix::read_retry(pair.peer_fd, sink.data(),
                                                sink.size());
      if (n <= 0) break;
      total += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(chunk.size(), total);
    pair.loop.post([&] { pair.loop.stop(); });
  });
  pair.loop.run();
  drain.join();
  EXPECT_EQ(0u, pair.transport->pending());
  EXPECT_GE(pair.drained, 1);
  EXPECT_EQ(chunk.size(), pair.transport->bytes_written());
}

TEST(TransportTest, CloseAfterFlushDeliversEverything) {
  TransportPair pair;
  pair.loop.post([&] {
    pair.write(as_bytes("last-words"));
    pair.transport->close_after_flush("done");
  });
  pair.loop.run();  // stops when on_closed fires
  EXPECT_TRUE(pair.closed);
  EXPECT_EQ("done", pair.close_reason);
  char buf[32] = {};
  const ssize_t n =
      util::posix::read_retry(pair.peer_fd, buf, sizeof(buf));
  EXPECT_EQ(10, n);
  EXPECT_STREQ("last-words", buf);
}

}  // namespace
}  // namespace h2push::net
