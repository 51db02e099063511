// H2 Connection endpoint tests: a client/server pair wired through an
// in-memory pipe — request/response flow, push promise lifecycle, push
// cancellation, SETTINGS_ENABLE_PUSH, flow control enforcement, scheduler
// interaction and the interleaving hold (Connection::interleave).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <span>
#include <tuple>

#include "h2/connection.h"

// WarmBulkTransferAllocatesNothingPerDataFrame asserts that DATA frames
// cross the appending produce and the callback parse without touching the
// heap.
#include "counting_allocator.h"

namespace h2push::h2 {
namespace {

/// One DATA frame the server sent: (stream, payload bytes).
using Sent = std::pair<std::uint32_t, std::size_t>;
using DataFrames = std::vector<Sent>;

struct Pair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  std::vector<std::pair<std::uint32_t, std::string>> client_bodies;
  std::map<std::uint32_t, bool> client_stream_done;
  std::vector<std::uint32_t> promises;
  std::vector<std::pair<std::uint32_t, http::HeaderBlock>> requests;
  std::string client_error, server_error;

  explicit Pair(bool enable_push = true,
                std::uint32_t client_window = kDefaultInitialWindow) {
    Connection::Config cc;
    cc.role = Role::kClient;
    cc.enable_push = enable_push;
    cc.initial_window = client_window;
    Connection::Callbacks ccb;
    ccb.on_data = [this](std::uint32_t stream,
                         std::span<const std::uint8_t> data, bool fin) {
      body(stream).append(reinterpret_cast<const char*>(data.data()),
                          data.size());
      if (fin) client_stream_done[stream] = true;
    };
    ccb.on_headers = [this](std::uint32_t stream, http::HeaderBlock,
                            bool fin) {
      if (fin) client_stream_done[stream] = true;
    };
    ccb.on_push_promise = [this](std::uint32_t, std::uint32_t promised,
                                 http::HeaderBlock) {
      promises.push_back(promised);
    };
    ccb.on_connection_error = [this](const std::string& e) {
      client_error = e;
    };
    client = std::make_unique<Connection>(cc, std::move(ccb));

    Connection::Config sc;
    sc.role = Role::kServer;
    Connection::Callbacks scb;
    scb.on_headers = [this](std::uint32_t stream, http::HeaderBlock headers,
                            bool) {
      requests.emplace_back(stream, std::move(headers));
    };
    scb.on_connection_error = [this](const std::string& e) {
      server_error = e;
    };
    server = std::make_unique<Connection>(sc, std::move(scb));
    client->start();
    server->start();
  }

  std::string& body(std::uint32_t stream) {
    for (auto& [id, b] : client_bodies) {
      if (id == stream) return b;
    }
    client_bodies.emplace_back(stream, std::string{});
    return client_bodies.back().second;
  }

  /// Shuttle bytes until both sides go quiet. `chunk` limits per-produce
  /// bytes so scheduling decisions interleave like they do over TCP.
  void pump(std::size_t chunk = 4096, int max_iters = 10000) {
    for (int i = 0; i < max_iters; ++i) {
      bool any = false;
      if (client->want_write()) {
        auto bytes = client->produce(chunk);
        if (!bytes.empty()) {
          server->receive(bytes);
          any = true;
        }
      }
      if (server->want_write()) {
        auto bytes = server->produce(chunk);
        if (!bytes.empty()) {
          client->receive(bytes);
          any = true;
        }
      }
      if (!any) return;
    }
    FAIL() << "pump did not quiesce";
  }

  std::uint32_t get(const std::string& path) {
    http::Request req;
    req.url = http::Url{"https", "test.example", 443, path};
    return client->submit_request(req.to_h2_headers());
  }

  static Body make_body(std::size_t n, char c = 'x') {
    return std::make_shared<const std::string>(std::string(n, c));
  }

  /// Let the server write until it emits one DATA frame, delivering every
  /// byte to the client. Returns that frame's (stream, payload size), or
  /// {0, 0} when no stream may send DATA.
  Sent next_server_data() {
    while (server->want_write()) {
      // produce(1) emits one control frame or one DATA frame, whole. A
      // held parent still wants to write but produces nothing.
      const auto bytes = server->produce(1);
      if (bytes.empty()) break;
      client->receive(bytes);
      FrameParser sniff;
      auto frames = sniff.feed(bytes);
      EXPECT_TRUE(frames.has_value());
      if (!frames.has_value()) break;
      for (const auto& frame : *frames) {
        if (const auto* data = std::get_if<DataFrame>(&frame)) {
          return {data->stream_id, data->data.size()};
        }
      }
    }
    return {0, 0};
  }

  /// Every remaining server DATA frame, in wire order.
  DataFrames drain_server_data() {
    DataFrames frames;
    for (auto frame = next_server_data(); frame.first != 0;
         frame = next_server_data()) {
      frames.push_back(frame);
    }
    return frames;
  }
};

/// A landing page on the server side: a GET for "/" answered with a
/// `parent_size`-byte body, after one push promise per `push_sizes` entry
/// (0 = an empty pushed body, which closes the push with its HEADERS).
struct Page {
  std::uint32_t parent = 0;
  std::vector<std::uint32_t> pushes;
};

Page serve_page(Pair& p, std::size_t parent_size,
                const std::vector<std::size_t>& push_sizes) {
  Page page;
  page.parent = p.get("/");
  p.pump();
  http::Response resp;
  for (const std::size_t size : push_sizes) {
    http::Request push_req;
    push_req.url = http::Url{"https", "test.example", 443,
                             "/push" + std::to_string(page.pushes.size())};
    const auto promised =
        p.server->submit_push_promise(page.parent, push_req.to_h2_headers());
    p.server->submit_response(promised, resp.to_h2_headers(),
                              size == 0 ? nullptr : Pair::make_body(size));
    page.pushes.push_back(promised);
  }
  p.server->submit_response(page.parent, resp.to_h2_headers(),
                            Pair::make_body(parent_size));
  return page;
}

TEST(Connection, BasicRequestResponse) {
  Pair p;
  const auto id = p.get("/index.html");
  p.pump();
  ASSERT_EQ(p.requests.size(), 1u);
  EXPECT_EQ(http::find_header(p.requests[0].second, ":path"), "/index.html");
  http::Response resp;
  resp.status = 200;
  resp.body_size = 5000;
  p.server->submit_response(id, resp.to_h2_headers(), Pair::make_body(5000));
  p.pump();
  EXPECT_EQ(p.body(id).size(), 5000u);
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_EQ(p.client->stream_state(id), StreamState::kClosed);
  EXPECT_EQ(p.server->stream_state(id), StreamState::kClosed);
}

TEST(Connection, EmptyBodyResponseClosesWithHeaders) {
  Pair p;
  const auto id = p.get("/empty");
  p.pump();
  http::Response resp;
  resp.status = 204;
  p.server->submit_response(id, resp.to_h2_headers(), nullptr);
  p.pump();
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_TRUE(p.body(id).empty());
}

TEST(Connection, MultiplexedStreamsAllComplete) {
  Pair p;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(p.get("/r" + std::to_string(i)));
  p.pump();
  ASSERT_EQ(p.requests.size(), 20u);
  for (const auto& [stream, headers] : p.requests) {
    http::Response resp;
    resp.body_size = 2000;
    p.server->submit_response(stream, resp.to_h2_headers(),
                              Pair::make_body(2000));
  }
  p.pump();
  for (const auto id : ids) {
    EXPECT_EQ(p.body(id).size(), 2000u) << "stream " << id;
  }
}

TEST(Connection, PushPromiseDeliversEvenStream) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/style.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  ASSERT_NE(promised, 0u);
  EXPECT_EQ(promised % 2, 0u);
  http::Response resp;
  resp.body_size = 1234;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(1234));
  p.server->submit_response(id, resp.to_h2_headers(), Pair::make_body(1234));
  p.pump();
  ASSERT_EQ(p.promises.size(), 1u);
  EXPECT_EQ(p.promises[0], promised);
  EXPECT_EQ(p.body(promised).size(), 1234u);
}

TEST(Connection, EnablePushZeroBlocksPromises) {
  Pair p(/*enable_push=*/false);
  const auto id = p.get("/");
  p.pump();
  EXPECT_FALSE(p.server->push_enabled_by_peer());
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/style.css"};
  EXPECT_EQ(p.server->submit_push_promise(id, push_req.to_h2_headers()), 0u);
}

TEST(Connection, ClientCanCancelPush) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/cached.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  p.pump();
  p.client->submit_rst(promised, ErrorCode::kCancel);
  p.pump();
  // A late response on the cancelled stream goes nowhere.
  http::Response resp;
  resp.body_size = 999;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(999));
  p.pump();
  EXPECT_TRUE(p.body(promised).empty());
  EXPECT_EQ(p.server->stream_state(promised), StreamState::kClosed);
}

TEST(Connection, PushPromiseOnClosedParentFails) {
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Response resp;
  p.server->submit_response(id, resp.to_h2_headers(), nullptr);
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/late.css"};
  EXPECT_EQ(p.server->submit_push_promise(id, push_req.to_h2_headers()), 0u);
}

TEST(Connection, FlowControlLimitsUntilWindowUpdate) {
  // Small client window: the server cannot send more than 65535 bytes
  // before the client replenishes (which our client does automatically).
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.body_size = 500000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(500000));
  p.pump();
  EXPECT_EQ(p.body(id).size(), 500000u);  // window updates kept it flowing
  EXPECT_TRUE(p.client_error.empty()) << p.client_error;
  EXPECT_TRUE(p.server_error.empty()) << p.server_error;
}

TEST(Connection, ProducedDataRespectsConnectionWindow) {
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.body_size = 200000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(200000));
  // Produce without delivering ACK-side window updates: the server must
  // stop at the default 65535-byte connection window.
  std::size_t produced_data = 0;
  while (p.server->want_write()) {
    auto bytes = p.server->produce(100000);
    if (bytes.empty()) break;
    produced_data += bytes.size();
  }
  EXPECT_LE(p.server->total_data_sent(), 65535u);
  EXPECT_GE(p.server->total_data_sent(), 65535u - kDefaultMaxFrameSize);
}

TEST(Connection, DataBytesSentTracksPerStream) {
  Pair p;
  const auto a = p.get("/a");
  const auto b = p.get("/b");
  p.pump();
  http::Response resp;
  const std::map<std::uint32_t, std::size_t> size{{a, 20000}, {b, 30000}};
  p.server->submit_response(a, resp.to_h2_headers(),
                            Pair::make_body(size.at(a)));
  p.server->submit_response(b, resp.to_h2_headers(),
                            Pair::make_body(size.at(b)));
  // Each body takes two frames. A stream still sending reports its count
  // after every frame; a finished stream is closed and forgotten.
  std::map<std::uint32_t, std::size_t> sent;
  for (auto [stream, bytes] = p.next_server_data(); stream != 0;
       std::tie(stream, bytes) = p.next_server_data()) {
    sent[stream] += bytes;
    const bool done = sent[stream] == size.at(stream);
    EXPECT_EQ(p.server->data_bytes_sent(stream), done ? 0u : sent[stream]);
    EXPECT_EQ(p.server->stream_state(stream) == StreamState::kClosed, done);
  }
  EXPECT_EQ(sent, size);
  EXPECT_EQ(p.server->total_data_sent(), 50000u);
}

TEST(Connection, InterleavingSchedulerHardSwitch) {
  // The paper's Fig. 5a, at the connection level: parent HTML pauses at the
  // offset, the critical push drains completely, the parent resumes.
  Pair p;
  const auto id = p.get("/");
  p.pump();
  http::Request push_req;
  push_req.url = http::Url{"https", "test.example", 443, "/critical.css"};
  const auto promised =
      p.server->submit_push_promise(id, push_req.to_h2_headers());
  http::Response resp;
  p.server->submit_response(promised, resp.to_h2_headers(),
                            Pair::make_body(8000, 'c'));
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(50000, 'h'));
  p.server->interleave(id, 4096, {promised});

  // Drive the server byte by byte and track arrival order at the client.
  std::string arrival_tags;
  std::size_t html_before_css_done = 0;
  bool css_done = false;
  while (p.server->want_write()) {
    auto bytes = p.server->produce(2048);
    if (bytes.empty()) break;
    p.client->receive(bytes);
    if (!css_done) html_before_css_done = p.body(id).size();
    if (p.body(promised).size() == 8000u) css_done = true;
    // Let window updates flow back.
    while (p.client->want_write()) {
      auto back = p.client->produce(4096);
      if (back.empty()) break;
      p.server->receive(back);
    }
  }
  EXPECT_EQ(p.body(id).size(), 50000u);
  EXPECT_EQ(p.body(promised).size(), 8000u);
  // The parent stopped at the offset until the pushed stream finished.
  EXPECT_LE(html_before_css_done, 4096u);
  EXPECT_GT(html_before_css_done, 0u);
}

TEST(Connection, InterleaveUnsetKeepsTreeOrder) {
  // Without interleave() the dependency tree rules: the parent is sent
  // whole, in full-size frames, before its pushed child.
  Pair p;
  const Page page = serve_page(p, 20000, {1000});
  EXPECT_EQ(p.drain_server_data(),
            (DataFrames{{page.parent, kDefaultMaxFrameSize},
                        {page.parent, 20000 - kDefaultMaxFrameSize},
                        {page.pushes[0], 1000}}));
}

TEST(Connection, InterleavePausesParentAtOffset) {
  Pair p;
  const Page page = serve_page(p, 50000, {8000});
  p.server->interleave(page.parent, 4096, {page.pushes[0]});
  // The parent's last frame before the switch ends exactly at the offset,
  // the critical push is sent whole, then the parent resumes uncapped.
  EXPECT_EQ(p.next_server_data(), Sent(page.parent, 4096));
  EXPECT_EQ(p.next_server_data(), Sent(page.pushes[0], 8000));
  EXPECT_EQ(p.next_server_data(),
            Sent(page.parent, kDefaultMaxFrameSize));
}

TEST(Connection, InterleaveDrainsEveryCriticalStream) {
  Pair p;
  const Page page = serve_page(p, 5000, {1000, 1000, 1000});
  p.server->interleave(page.parent, 1000, page.pushes);
  const DataFrames frames = p.drain_server_data();
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0], Sent(page.parent, 1000));
  std::set<std::uint32_t> drained;
  for (std::size_t i = 1; i < 4; ++i) drained.insert(frames[i].first);
  EXPECT_EQ(drained, std::set<std::uint32_t>(page.pushes.begin(),
                                             page.pushes.end()));
  EXPECT_EQ(frames[4], Sent(page.parent, 4000));
}

TEST(Connection, InterleaveIgnoresCriticalPushAlreadyDone) {
  // A push with an empty body closes with its HEADERS, before the hold is
  // set up; it must not wedge the parent at the offset.
  Pair p;
  const Page page = serve_page(p, 5000, {0});
  p.server->interleave(page.parent, 100, {page.pushes[0]});
  EXPECT_EQ(p.drain_server_data(), (DataFrames{{page.parent, 5000}}));
}

TEST(Connection, InterleaveReleasedWhenClientResetsCriticalPush) {
  Pair p;
  const Page page = serve_page(p, 5000, {8000});
  p.server->interleave(page.parent, 100, {page.pushes[0]});
  EXPECT_EQ(p.next_server_data(), Sent(page.parent, 100));
  // The client cancels the critical push before any of it is sent.
  p.client->submit_rst(page.pushes[0], ErrorCode::kCancel);
  p.server->receive(p.client->produce(4096));
  EXPECT_EQ(p.drain_server_data(), (DataFrames{{page.parent, 4900}}));
}

TEST(Connection, InterleaveOffsetLargerThanParentNeverPauses) {
  Pair p;
  const Page page = serve_page(p, 5000, {1000});
  p.server->interleave(page.parent, 1 << 20, {page.pushes[0]});
  EXPECT_EQ(p.drain_server_data(),
            (DataFrames{{page.parent, 5000}, {page.pushes[0], 1000}}));
}

TEST(Connection, InterleaveAtOffsetZeroHoldsParentFromTheStart) {
  Pair p;
  const Page page = serve_page(p, 5000, {1000});
  p.server->interleave(page.parent, 0, {page.pushes[0]});
  EXPECT_EQ(p.drain_server_data(),
            (DataFrames{{page.pushes[0], 1000}, {page.parent, 5000}}));
}

TEST(Connection, InterleaveReplacedByAnotherHoldFreesTheOldParent) {
  Pair p;
  const Page page = serve_page(p, 5000, {1000, 1000});
  p.server->interleave(page.parent, 0, {page.pushes[0]});
  // The new hold is on the first push, until the second is done; the
  // parent is free again and goes first, as the tree's parent.
  p.server->interleave(page.pushes[0], 0, {page.pushes[1]});
  EXPECT_EQ(p.drain_server_data(),
            (DataFrames{{page.parent, 5000},
                        {page.pushes[1], 1000},
                        {page.pushes[0], 1000}}));
}

TEST(Connection, PingIsAcked) {
  Pair p;
  p.pump();
  p.client->receive(serialize(Frame{PingFrame{false, 77}}));
  auto bytes = p.client->produce(1024);
  // Find a PING ack in the output.
  FrameParser parser;
  auto frames = parser.feed(bytes);
  ASSERT_TRUE(frames.has_value());
  bool found = false;
  for (const auto& f : *frames) {
    if (const auto* ping = std::get_if<PingFrame>(&f)) {
      if (ping->ack && ping->opaque == 77) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Connection, GarbageInputRaisesConnectionError) {
  Pair p;
  p.pump();
  std::vector<std::uint8_t> garbage{0xff, 0xff, 0xff, 0x01, 0x00,
                                    0x00, 0x00, 0x00, 0x01};
  p.server->receive(garbage);
  EXPECT_FALSE(p.server->last_error().empty());
}

// --- produce(out, max): the one write path ---
//
// The simulator's testbed and the live daemon both write through
// produce(out, max), which appends whole frames until `max` is reached.
// These tests pin down that (a) a call passes its budget by at most its
// last frame, (b) the frame sequence does not depend on the budget, so a
// simulated write chunk and a socket's watermark budget send the same
// frames, and (c) draining interleaved with the peer's window updates
// keeps the accounting consistent.

namespace {
/// (type, stream, flags, payload length) of one frame on the wire.
using FrameShape =
    std::tuple<std::uint8_t, std::uint32_t, std::uint8_t, std::size_t>;

/// The shape of every frame in `wire`, which must hold whole frames only.
std::vector<FrameShape> frame_shapes(std::span<const std::uint8_t> wire) {
  std::vector<FrameShape> shapes;
  std::size_t pos = 0;
  while (pos + kFrameHeaderSize <= wire.size()) {
    const std::size_t length = (std::size_t{wire[pos]} << 16) |
                               (std::size_t{wire[pos + 1]} << 8) |
                               wire[pos + 2];
    const std::uint32_t stream =
        ((std::uint32_t{wire[pos + 5]} << 24) |
         (std::uint32_t{wire[pos + 6]} << 16) |
         (std::uint32_t{wire[pos + 7]} << 8) | wire[pos + 8]) &
        0x7fffffff;
    shapes.emplace_back(wire[pos + 3], stream, wire[pos + 4], length);
    pos += kFrameHeaderSize + length;
  }
  EXPECT_EQ(pos, wire.size()) << "produce() split a frame";
  return shapes;
}

/// Answer two requests with `body_size`-byte bodies, drain the server
/// through produce(out, budget) and deliver everything to the client.
/// Checks that each call stops within one frame of its budget and that
/// both bodies arrive intact; returns the shapes of the frames sent.
std::vector<FrameShape> drain_server_frames(std::size_t body_size,
                                            std::size_t budget) {
  Pair p;
  const auto a = p.get("/a");
  const auto b = p.get("/b");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = body_size;
  p.server->submit_response(a, resp.to_h2_headers(),
                            Pair::make_body(body_size, 'a'));
  p.server->submit_response(b, resp.to_h2_headers(),
                            Pair::make_body(body_size, 'b'));
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 100000 && p.server->want_write(); ++i) {
    const std::size_t before = wire.size();
    const std::size_t n = p.server->produce(wire, budget);
    EXPECT_EQ(n, wire.size() - before);
    if (n == 0) break;
    const auto shapes =
        frame_shapes(std::span<const std::uint8_t>(wire).subspan(before));
    if (shapes.empty()) break;
    const std::size_t last_length = std::get<3>(shapes.back());
    EXPECT_LE(last_length, kDefaultMaxFrameSize);
    EXPECT_LT(n - (kFrameHeaderSize + last_length), budget)
        << "kept writing after the budget was reached";
  }
  EXPECT_FALSE(p.server->want_write());
  p.client->receive(wire);
  EXPECT_EQ(p.body(a), std::string(body_size, 'a'));
  EXPECT_EQ(p.body(b), std::string(body_size, 'b'));
  return frame_shapes(wire);
}
}  // namespace

TEST(Connection, ProduceOvershootsItsBudgetByAtMostOneFrame) {
  // One byte (one frame per call) through comfortable budgets.
  for (const std::size_t budget : {1u, 10u, 64u, 100u, 1000u}) {
    EXPECT_FALSE(drain_server_frames(20000, budget).empty());
  }
}

TEST(Connection, FrameSequenceDoesNotDependOnBudget) {
  const auto reference = drain_server_frames(30000, 1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t budget : {17u, 1460u, 65536u, 262144u}) {
    EXPECT_EQ(drain_server_frames(30000, budget), reference)
        << "budget " << budget;
  }
}

TEST(Connection, ProduceInterleavedWithReceiveStaysConsistent) {
  // Alternate small produce drains with client receive/acks so flow
  // control windows refill mid-drain; invariants must hold throughout.
  Pair p;
  const auto id = p.get("/big");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = 200000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(200000, 'z'));
  for (int i = 0; i < 100000 && !p.client_stream_done[id]; ++i) {
    std::vector<std::uint8_t> chunk;
    p.server->produce(chunk, 1500);  // ~MTU-sized drains
    if (!chunk.empty()) p.client->receive(chunk);
    ASSERT_EQ(std::nullopt, p.server->check_invariants());
    if (p.client->want_write()) {
      const auto acks = p.client->produce(1 << 20);
      if (!acks.empty()) p.server->receive(acks);
    }
  }
  EXPECT_EQ(p.body(id).size(), 200000u);
  EXPECT_EQ(p.server->stream_state(id), StreamState::kClosed);
}

TEST(Connection, SubmitGoawayLetsStreamsFinish) {
  Pair p;
  const auto id = p.get("/drain");
  p.pump();
  http::Response resp;
  resp.status = 200;
  resp.body_size = 40000;
  p.server->submit_response(id, resp.to_h2_headers(),
                            Pair::make_body(40000));
  p.server->submit_goaway();
  EXPECT_FALSE(p.server->send_quiescent());  // body still pending
  p.pump();
  EXPECT_TRUE(p.client_stream_done[id]);
  EXPECT_EQ(p.body(id).size(), 40000u);
  EXPECT_TRUE(p.server->send_quiescent());
  EXPECT_TRUE(p.client_error.empty());  // graceful GOAWAY, not an error
}

TEST(Connection, WarmBulkTransferAllocatesNothingPerDataFrame) {
  // A 1 MB response between two connections wired like the simulator:
  // each side writes through the appending produce into one reused buffer,
  // and the reader gets it in MSS-sized pieces, so most DATA frames are
  // cut across pieces and reassembled in the parser's buffer. Windows are
  // large enough that no WINDOW_UPDATE is due. Once the buffers are warm
  // (a first identical exchange), the second response's DATA allocates
  // nothing.
  constexpr std::size_t kBody = 251 * 4200;  // ~1 MB, whole pattern cycles
  std::string pattern(kBody, '\0');
  for (std::size_t i = 0; i < kBody; ++i) {
    pattern[i] = static_cast<char>(i % 251);
  }
  const Body body = std::make_shared<const std::string>(std::move(pattern));

  std::size_t received = 0;
  std::size_t data_frames = 0;
  bool mismatch = false;
  bool done = false;
  std::size_t allocations_at_headers = 0;
  Connection::Config cc;
  cc.role = Role::kClient;
  cc.initial_window = 1u << 24;
  cc.connection_window_bonus = 1u << 24;
  Connection::Callbacks ccb;
  ccb.on_headers = [&](std::uint32_t, http::HeaderBlock, bool) {
    allocations_at_headers = test_allocation_count();
  };
  ccb.on_data = [&](std::uint32_t, std::span<const std::uint8_t> data,
                    bool fin) {
    for (const auto byte : data) {
      if (byte != static_cast<std::uint8_t>(received++ % 251)) {
        mismatch = true;
      }
    }
    ++data_frames;
    done = fin;
  };
  Connection client(cc, std::move(ccb));
  std::vector<std::uint32_t> requests;
  Connection::Config sc;
  sc.role = Role::kServer;
  Connection::Callbacks scb;
  scb.on_headers = [&](std::uint32_t stream, http::HeaderBlock, bool) {
    requests.push_back(stream);
  };
  Connection server(sc, std::move(scb));
  client.start();
  server.start();

  std::vector<std::uint8_t> wire;
  const auto pump = [&] {
    for (bool any = true; any;) {
      any = false;
      for (auto [from, to] : {std::pair{&client, &server},
                              std::pair{&server, &client}}) {
        wire.clear();
        if (from->produce(wire, 2 * 1460) == 0) continue;
        any = true;
        for (std::size_t pos = 0; pos < wire.size(); pos += 1460) {
          to->receive({wire.data() + pos,
                       std::min<std::size_t>(1460, wire.size() - pos)});
        }
      }
    }
  };
  http::Request req;
  req.url = http::Url{"https", "test.example", 443, "/bulk"};
  http::Response resp;
  resp.status = 200;
  resp.body_size = kBody;
  std::size_t allocations_after_headers = 0;
  for (int round = 0; round < 2; ++round) {
    received = 0;
    data_frames = 0;
    done = false;
    client.submit_request(req.to_h2_headers());
    pump();
    ASSERT_EQ(requests.size(), static_cast<std::size_t>(round + 1));
    server.submit_response(requests.back(), resp.to_h2_headers(), body);
    pump();
    allocations_after_headers =
        test_allocation_count() - allocations_at_headers;
    ASSERT_TRUE(done);
    EXPECT_EQ(received, kBody);
    EXPECT_FALSE(mismatch);
  }
  EXPECT_GE(data_frames, kBody / kDefaultMaxFrameSize);
  EXPECT_EQ(allocations_after_headers, 0u)
      << allocations_after_headers << " allocations for " << data_frames
      << " DATA frames";
  EXPECT_TRUE(client.last_error().empty());
  EXPECT_TRUE(server.last_error().empty());
}

/// A client and a server connection with their own configs, exchanging
/// whole produce() outputs through one reused buffer.
struct Session {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  std::uint32_t last_request = 0;  // stream of the newest request served
  std::size_t responses = 0;       // responses the client saw complete
  std::vector<std::uint8_t> wire;

  explicit Session(std::size_t client_table_size = 4096) {
    Connection::Config cc;
    cc.role = Role::kClient;
    cc.header_table_size = client_table_size;
    Connection::Callbacks ccb;
    ccb.on_headers = [this](std::uint32_t, http::HeaderBlock, bool fin) {
      if (fin) ++responses;
    };
    ccb.on_data = [this](std::uint32_t, std::span<const std::uint8_t>,
                         bool fin) {
      if (fin) ++responses;
    };
    client = std::make_unique<Connection>(cc, std::move(ccb));
    Connection::Config sc;
    sc.role = Role::kServer;
    Connection::Callbacks scb;
    scb.on_headers = [this](std::uint32_t stream, http::HeaderBlock, bool) {
      last_request = stream;
    };
    server = std::make_unique<Connection>(sc, std::move(scb));
    client->start();
    server->start();
  }

  void pump() {
    for (bool any = true; any;) {
      any = false;
      for (auto [from, to] : {std::pair{client.get(), server.get()},
                              std::pair{server.get(), client.get()}}) {
        wire.clear();
        if (from->produce(wire, 1 << 16) == 0) continue;
        any = true;
        to->receive(wire);
      }
    }
  }

  /// One request and its response, each delivered in full.
  void exchange(const http::HeaderBlock& request,
                const http::HeaderBlock& response, const Body& body) {
    client->submit_request(request);
    pump();
    server->submit_response(last_request, response, body);
    pump();
  }
};

http::HeaderBlock numbered_request(std::size_t i) {
  char path[16];
  std::snprintf(path, sizeof(path), "/r/%06zu", i);
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", "test.example"},
          {":path", path}};
}

// The ROADMAP acceptance test for bounded per-connection state: 100k
// sequential requests at the default priority on one connection. Closed
// streams leave both the stream table and the tree, and once warm a
// request costs the same allocations at the end as at the start.
TEST(Connection, LongLivedConnectionKeepsStateFlat) {
  constexpr std::size_t kWarmup = 1000;
  constexpr std::size_t kRequests = 100000;
  constexpr std::size_t kWindow = 1000;
  Session session;
  const http::HeaderBlock response{{":status", "200"},
                                   {"content-type", "text/plain"}};
  const Body body = std::make_shared<const std::string>(188, 'x');
  std::size_t first_window = 0;
  std::size_t last_window = 0;
  std::size_t window_start = 0;
  for (std::size_t i = 0; i < kWarmup + kRequests; ++i) {
    const std::size_t run = i >= kWarmup ? i - kWarmup : kRequests;
    if (run == 0 || run == kRequests - kWindow) {
      window_start = test_allocation_count();
    }
    session.client->submit_request(numbered_request(i));
    session.pump();
    // One request in flight: open at the client, and at the server until
    // its response is written.
    ASSERT_LE(session.client->stream_count(), 1u);
    ASSERT_LE(session.server->stream_count(), 1u);
    session.server->submit_response(session.last_request, response, body);
    session.pump();
    ASSERT_EQ(session.responses, i + 1);
    ASSERT_EQ(session.client->stream_count(), 0u);
    ASSERT_EQ(session.server->stream_count(), 0u);
    ASSERT_EQ(session.client->priority_tree().node_count(), 1u);  // the root
    ASSERT_EQ(session.server->priority_tree().node_count(), 1u);
    if (run == kWindow - 1) first_window = test_allocation_count() - window_start;
    if (run == kRequests - 1) last_window = test_allocation_count() - window_start;
  }
  EXPECT_GT(first_window, 0u);
  EXPECT_EQ(last_window, first_window)
      << "allocations per " << kWindow << " requests grew";
  EXPECT_EQ(session.client->stream_state(1), StreamState::kClosed);
  EXPECT_TRUE(session.client->last_error().empty());
  EXPECT_TRUE(session.server->last_error().empty());
  EXPECT_EQ(session.server->check_invariants(), std::nullopt);

  // A warm encoder re-encoding a block it has already indexed allocates
  // nothing.
  HpackEncoder encoder;
  std::vector<std::uint8_t> out;
  const auto block = numbered_request(7);
  encoder.encode_into(block, out);
  const std::size_t before = test_allocation_count();
  encoder.encode_into(block, out);
  EXPECT_EQ(test_allocation_count(), before);
}

// The server's HPACK encoder keeps at most our own table size, whatever
// the peer announces: 10k distinct response headers after a client
// announced a 1 GiB table leave 4096 bytes in it.
TEST(Connection, EncoderTableCappedByOwnHeaderTableSize) {
  Session session(/*client_table_size=*/1u << 30);
  const Body body = std::make_shared<const std::string>(10, 'x');
  for (std::size_t i = 0; i < 10000; ++i) {
    const http::HeaderBlock response{{":status", "200"},
                                     {"etag", "\"" + std::to_string(i) + "\""}};
    session.exchange(numbered_request(i), response, body);
    ASSERT_LE(session.server->hpack_encoder().table().size(), 4096u);
  }
  EXPECT_EQ(session.server->hpack_encoder().table().max_size(), 4096u);
  EXPECT_EQ(session.responses, 10000u);
  EXPECT_TRUE(session.client->last_error().empty());
}

TEST(Connection, FramesBeforeAMalformedOneTakeEffectFirst) {
  // A PING and then a DATA frame on stream 0 (a connection error) in one
  // chunk: the PING is answered before the GOAWAY goes out, the order RFC
  // 7540 §5.4.1 gives a receiver that processes frames as they arrive.
  Pair p;
  p.pump();
  std::vector<std::uint8_t> chunk;
  serialize_into(Frame{PingFrame{false, 99}}, chunk);
  DataFrame bad;
  bad.stream_id = 0;
  bad.data = {1, 2, 3};
  serialize_into(Frame{bad}, chunk);
  p.server->receive(chunk);
  EXPECT_EQ(p.server->last_error_code(), ErrorCode::kProtocolError);

  FrameParser parser;
  const auto frames = parser.feed(p.server->produce(1 << 20));
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 2u);
  const auto* ack = std::get_if<PingFrame>(&(*frames)[0]);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ack);
  EXPECT_EQ(ack->opaque, 99u);
  EXPECT_EQ(std::get<GoawayFrame>((*frames)[1]).error,
            ErrorCode::kProtocolError);
}

TEST(Connection, BadPrefaceIsRejected) {
  Connection::Config sc;
  sc.role = Role::kServer;
  std::string error;
  Connection::Callbacks scb;
  scb.on_connection_error = [&error](const std::string& e) { error = e; };
  Connection server(sc, std::move(scb));
  server.start();
  const std::string bad = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  server.receive({reinterpret_cast<const std::uint8_t*>(bad.data()),
                  bad.size()});
  EXPECT_EQ(error, "bad client preface");
}

}  // namespace
}  // namespace h2push::h2
