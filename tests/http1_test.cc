// HTTP/1.1 baseline tests: message serialization/parsing, the serial
// keep-alive client, streaming bodies, the H1 replay server, and the
// end-to-end H1-vs-H2 comparison properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "browser/config.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "http1/connection.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "web/site.h"

namespace h2push::http1 {
namespace {

TEST(H1Serialize, RequestLineAndHeaders) {
  http::Request req;
  req.url = *http::parse_url("https://a.test/path/x?q=1");
  req.headers = {{"accept", "*/*"}, {":method", "GET"}};
  const auto wire = serialize_request(req);
  EXPECT_NE(wire.find("GET /path/x?q=1 HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("host: a.test\r\n"), std::string::npos);
  EXPECT_NE(wire.find("accept: */*\r\n"), std::string::npos);
  EXPECT_EQ(wire.find(":method"), std::string::npos);  // no pseudo headers
  EXPECT_NE(wire.find("\r\n\r\n"), std::string::npos);
}

TEST(H1Serialize, ResponseHead) {
  http::Response resp;
  resp.status = 200;
  resp.type = http::ResourceType::kCss;
  resp.body_size = 1234;
  const auto wire = serialize_response_head(resp);
  EXPECT_NE(wire.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 1234"), std::string::npos);
  EXPECT_NE(wire.find("content-type: text/css"), std::string::npos);
}

/// `bytes` as the pieces of one delivery: cut every `k` bytes (0: one
/// piece).
std::vector<util::Piece> pieces_of(const std::string& bytes,
                                   std::size_t k = 0) {
  const auto all = util::bytes_of(bytes);
  std::vector<util::Piece> pieces;
  const std::size_t step = k == 0 ? all.size() : k;
  for (std::size_t at = 0; at < all.size(); at += step) {
    pieces.push_back({all.subspan(at, std::min(step, all.size() - at))});
  }
  return pieces;
}

TEST(H1Parser, ParsesRequestsBackToBack) {
  RequestParser parser;
  const std::string wire =
      "GET /a HTTP/1.1\r\nhost: x.test\r\n\r\n"
      "GET /b HTTP/1.1\r\nhost: x.test\r\ncookie: s=1\r\n\r\n";
  const auto messages = parser.feed(util::bytes_of(wire));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].target, "/a");
  EXPECT_EQ(messages[1].target, "/b");
  EXPECT_EQ(http::find_header(messages[1].headers, "cookie"), "s=1");
}

/// A client with `requests` requests queued (sent one at a time),
/// recording each response's status, headers and body, and the size of
/// every on_body_data call.
struct RecordingClient {
  struct Response {
    int status = 0;
    http::HeaderBlock headers;
    std::string body;
    bool finished = false;
  };
  std::vector<Response> responses;
  std::vector<std::size_t> body_calls;  // bytes per on_body_data call
  std::unique_ptr<ClientConnection> conn;

  explicit RecordingClient(int requests) {
    ClientConnection::Callbacks cbs;
    cbs.on_headers = [this](const http::HeaderBlock& headers, int status) {
      responses.push_back({status, headers, {}, false});
    };
    cbs.on_body_data = [this](std::span<const std::uint8_t> data, bool fin) {
      body_calls.push_back(data.size());
      responses.back().body.append(
          reinterpret_cast<const char*>(data.data()), data.size());
      responses.back().finished = fin;
    };
    conn = std::make_unique<ClientConnection>(std::move(cbs));
    http::Request req;
    req.url = *http::parse_url("https://a.test/");
    for (int i = 0; i < requests; ++i) conn->submit_request(req);
  }
};

TEST(H1Parser, ResponseBodyByContentLength) {
  RecordingClient client(2);
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloHTTP/1.1 404 "
      "NF\r\ncontent-length: 0\r\n\r\n";
  client.conn->receive(pieces_of(wire));
  ASSERT_EQ(client.responses.size(), 2u);
  EXPECT_EQ(client.responses[0].status, 200);
  EXPECT_EQ(client.responses[0].body, "hello");
  EXPECT_TRUE(client.responses[0].finished);
  EXPECT_EQ(client.responses[1].status, 404);
  EXPECT_EQ(client.responses[1].body, "");
  EXPECT_TRUE(client.responses[1].finished);
  EXPECT_FALSE(client.conn->busy());
}

TEST(H1Parser, HandlesBytewiseDelivery) {
  RecordingClient client(1);
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc";
  client.conn->receive(pieces_of(wire, 1));
  ASSERT_EQ(client.responses.size(), 1u);
  EXPECT_EQ(client.responses[0].status, 200);
  EXPECT_EQ(client.responses[0].body, "abc");
  EXPECT_TRUE(client.responses[0].finished);
}

TEST(H1Client, PiecesParseLikeOneFlatPiece) {
  // One response cut into pieces every k bytes reads as it does whole:
  // the same headers and body bytes. With the body in one piece, as the
  // simulated TCP delivers it, on_body_data is called once per delivery.
  std::string body(3000, '\0');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>((i * 31 + 7) % 251);
  }
  http::Response head;
  head.status = 200;
  head.type = http::ResourceType::kImage;
  head.body_size = body.size();
  head.headers = {{"cache-control", "max-age=60"}, {"x-test", "a: b"}};
  const std::string wire = serialize_response_head(head) + body;

  RecordingClient flat(1);
  flat.conn->receive(pieces_of(wire));
  ASSERT_EQ(flat.responses.size(), 1u);
  EXPECT_EQ(flat.responses[0].status, 200);
  EXPECT_EQ(flat.responses[0].body, body);
  EXPECT_EQ(http::find_header(flat.responses[0].headers, "x-test"), "a: b");
  EXPECT_EQ(flat.body_calls, (std::vector<std::size_t>{body.size()}));

  for (std::size_t k = 1; k <= 1461; ++k) {
    RecordingClient cut(1);
    cut.conn->receive(pieces_of(wire, k));
    ASSERT_EQ(cut.responses.size(), 1u) << k;
    EXPECT_EQ(cut.responses[0].status, 200) << k;
    EXPECT_EQ(cut.responses[0].headers, flat.responses[0].headers) << k;
    EXPECT_EQ(cut.responses[0].body, body) << k;
    EXPECT_TRUE(cut.responses[0].finished) << k;
  }

  // Head and body as separate pieces, the body delivered over several
  // deliveries of one piece each: one on_body_data per delivery.
  const std::string head_bytes = serialize_response_head(head);
  RecordingClient split(1);
  const std::size_t cuts[] = {0, 1000, 2920, 3000};
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    std::vector<util::Piece> delivery;
    if (i == 0) delivery.push_back({util::bytes_of(head_bytes)});
    delivery.push_back(
        {util::bytes_of(body).subspan(cuts[i], cuts[i + 1] - cuts[i])});
    split.conn->receive(delivery);
  }
  EXPECT_EQ(split.body_calls, (std::vector<std::size_t>{1000, 1920, 80}));
  ASSERT_EQ(split.responses.size(), 1u);
  EXPECT_EQ(split.responses[0].body, body);
}

TEST(H1Client, SerializesRequestsOneAtATime) {
  int headers_seen = 0;
  std::string body;
  ClientConnection::Callbacks cbs;
  cbs.on_headers = [&](const http::HeaderBlock&, int) { ++headers_seen; };
  cbs.on_body_data = [&](std::span<const std::uint8_t> data, bool) {
    body.append(reinterpret_cast<const char*>(data.data()), data.size());
  };
  ClientConnection client(std::move(cbs));
  http::Request req;
  req.url = *http::parse_url("https://a.test/1");
  client.submit_request(req);
  req.url = *http::parse_url("https://a.test/2");
  client.submit_request(req);

  // Only the first request is on the wire (no pipelining).
  std::vector<std::uint8_t> first;
  util::FlatSink first_sink(first);
  client.produce(first_sink, 1 << 20);
  const std::string first_str(first.begin(), first.end());
  EXPECT_NE(first_str.find("GET /1"), std::string::npos);
  EXPECT_EQ(first_str.find("GET /2"), std::string::npos);
  EXPECT_TRUE(client.busy());
  EXPECT_EQ(client.queued(), 1u);

  // Deliver a response; the second request goes out.
  client.receive(
      pieces_of("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"));
  EXPECT_EQ(headers_seen, 1);
  EXPECT_EQ(body, "ok");
  std::vector<std::uint8_t> second;
  util::FlatSink second_sink(second);
  client.produce(second_sink, 1 << 20);
  const std::string second_str(second.begin(), second.end());
  EXPECT_NE(second_str.find("GET /2"), std::string::npos);
}

TEST(H1Client, StreamsBodyIncrementally) {
  std::vector<std::size_t> chunk_sizes;
  bool finished = false;
  ClientConnection::Callbacks cbs;
  cbs.on_body_data = [&](std::span<const std::uint8_t> data, bool fin) {
    chunk_sizes.push_back(data.size());
    finished = fin;
  };
  ClientConnection client(std::move(cbs));
  http::Request req;
  req.url = *http::parse_url("https://a.test/big");
  client.submit_request(req);
  std::vector<std::uint8_t> request;
  util::FlatSink request_sink(request);
  client.produce(request_sink, 1 << 20);
  client.receive(
      pieces_of("HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n"));
  const std::string part1 = "12345";
  client.receive(pieces_of(part1));
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{5}));
  EXPECT_FALSE(finished);
  client.receive(pieces_of(part1));
  EXPECT_TRUE(finished);
}

// ----------------------------------------------------------- end to end

web::Site h1_site(int images) {
  web::PagePlan plan;
  plan.name = "h1-site-" + std::to_string(images);
  plan.primary_host = "www.h1.test";
  plan.html_size = 24 * 1024;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  web::ResourcePlan css;
  css.path = "/m.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 12 * 1024;
  css.placement = web::ResourcePlan::Placement::kHead;
  plan.resources.push_back(css);
  for (int i = 0; i < images; ++i) {
    web::ResourcePlan img;
    img.path = "/i" + std::to_string(i) + ".png";
    img.host = plan.primary_host;
    img.type = http::ResourceType::kImage;
    img.size = 15 * 1024;
    img.placement = web::ResourcePlan::Placement::kBodyMiddle;
    plan.resources.push_back(img);
  }
  return web::build_site(plan);
}

TEST(H1EndToEnd, LoadsCompletePage) {
  const auto site = h1_site(10);
  core::RunConfig cfg;
  cfg.browser.use_http1 = true;
  const auto result = core::run_page_load(site, core::no_push(), cfg);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.num_requests, 12u);
  EXPECT_EQ(result.num_pushed, 0u);
  for (const auto& r : result.resources) {
    EXPECT_GT(r.size, 0u) << r.url;
  }
}

TEST(H1EndToEnd, DeterministicPerRun) {
  const auto site = h1_site(6);
  core::RunConfig cfg;
  cfg.browser.use_http1 = true;
  const auto a = core::run_page_load(site, core::no_push(), cfg);
  const auto b = core::run_page_load(site, core::no_push(), cfg);
  EXPECT_DOUBLE_EQ(a.plt_ms, b.plt_ms);
}

TEST(H1EndToEnd, H2IsFasterOnManySmallObjects) {
  // The classic SPDY result [37]: multiplexing beats 6 serial connections
  // when a page has many small objects.
  const auto site = h1_site(30);
  core::RunConfig h1_cfg;
  h1_cfg.browser.use_http1 = true;
  core::RunConfig h2_cfg;
  const auto h1 = core::run_page_load(site, core::no_push(), h1_cfg);
  const auto h2 = core::run_page_load(site, core::no_push(), h2_cfg);
  ASSERT_TRUE(h1.complete);
  ASSERT_TRUE(h2.complete);
  EXPECT_LT(h2.plt_ms, h1.plt_ms);
}

TEST(H1EndToEnd, ConnectionCountRespectsLimit) {
  // 30 objects on one origin keep every connection busy: the browser opens
  // exactly as many as it may, and each gets its own server track.
  const auto site = h1_site(30);
  trace::TraceRecorder recorder;
  core::RunConfig cfg;
  cfg.browser.use_http1 = true;
  cfg.trace = &recorder;
  const auto result = core::run_page_load(site, core::no_push(), cfg);
  ASSERT_TRUE(result.complete);
  std::size_t connections = 0;
  for (const auto& track : recorder.tracks()) {
    if (track.starts_with("server.")) ++connections;
  }
  EXPECT_EQ(connections, browser::kH1ConnectionsPerOrigin);
}

}  // namespace
}  // namespace h2push::http1
