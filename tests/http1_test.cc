// HTTP/1.1 baseline tests: message serialization/parsing, the serial
// keep-alive client, streaming bodies, the H1 replay server, and the
// end-to-end H1-vs-H2 comparison properties.
#include <gtest/gtest.h>

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

TEST(H1Parser, ParsesRequestsBackToBack) {
  MessageParser parser(MessageParser::Kind::kRequest);
  const std::string wire =
      "GET /a HTTP/1.1\r\nhost: x.test\r\n\r\n"
      "GET /b HTTP/1.1\r\nhost: x.test\r\ncookie: s=1\r\n\r\n";
  const auto messages = parser.feed(
      {reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()});
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].target, "/a");
  EXPECT_EQ(messages[1].target, "/b");
  EXPECT_EQ(http::find_header(messages[1].headers, "cookie"), "s=1");
}

TEST(H1Parser, ResponseBodyByContentLength) {
  MessageParser parser(MessageParser::Kind::kResponse);
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloHTTP/1.1 404 "
      "NF\r\ncontent-length: 0\r\n\r\n";
  const auto messages = parser.feed(
      {reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()});
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].status, 200);
  EXPECT_EQ(messages[0].body, "hello");
  EXPECT_EQ(messages[1].status, 404);
}

TEST(H1Parser, HandlesBytewiseDelivery) {
  MessageParser parser(MessageParser::Kind::kResponse);
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc";
  std::vector<MessageParser::Message> all;
  for (const char c : wire) {
    const auto byte = static_cast<std::uint8_t>(c);
    for (auto& m : parser.feed({&byte, 1})) all.push_back(std::move(m));
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].body, "abc");
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
  const std::string resp = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
  client.receive(
      {reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size()});
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
  const std::string head = "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n";
  client.receive({reinterpret_cast<const std::uint8_t*>(head.data()),
                  head.size()});
  const std::string part1 = "12345";
  client.receive({reinterpret_cast<const std::uint8_t*>(part1.data()), 5});
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{5}));
  EXPECT_FALSE(finished);
  client.receive({reinterpret_cast<const std::uint8_t*>(part1.data()), 5});
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
