// Regression tests for the protocol-robustness review findings: padded
// frames, settings synchronization, closed-stream frames, and priority-tree
// cycle guards. Each test encodes the exact scenario the review named.
#include <gtest/gtest.h>

#include "h2/connection.h"
#include "h2/priority.h"

namespace h2push::h2 {
namespace {

std::vector<std::uint8_t> padded_frame(FrameType type, std::uint8_t flags,
                                       std::uint32_t stream_id,
                                       std::vector<std::uint8_t> body,
                                       std::uint8_t pad) {
  std::vector<std::uint8_t> payload;
  payload.push_back(pad);
  payload.insert(payload.end(), body.begin(), body.end());
  payload.insert(payload.end(), pad, 0x00);
  std::vector<std::uint8_t> out;
  const std::size_t len = payload.size();
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(static_cast<std::uint8_t>(flags | kFlagPadded));
  out.push_back(static_cast<std::uint8_t>(stream_id >> 24));
  out.push_back(static_cast<std::uint8_t>(stream_id >> 16));
  out.push_back(static_cast<std::uint8_t>(stream_id >> 8));
  out.push_back(static_cast<std::uint8_t>(stream_id));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(ProtocolRobustness, PaddedDataCarriesPaddingSize) {
  FrameParser parser;
  auto frames = parser.feed(
      padded_frame(FrameType::kData, kFlagEndStream, 1, {1, 2, 3}, 7));
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  const auto& data = std::get<DataFrame>((*frames)[0]);
  EXPECT_EQ(data.data, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(data.padding_bytes, 8u);  // Pad-Length octet + 7 padding bytes
}

TEST(ProtocolRobustness, PaddedPushPromiseParsesCorrectly) {
  std::vector<std::uint8_t> body{0x00, 0x00, 0x00, 0x04,  // promised id 4
                                 0x82, 0x84};              // header block
  FrameParser parser;
  auto frames = parser.feed(padded_frame(FrameType::kPushPromise,
                                         kFlagEndHeaders, 1, body, 5));
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  const auto& promise = std::get<PushPromiseFrame>((*frames)[0]);
  EXPECT_EQ(promise.promised_id, 4u);
  EXPECT_EQ(promise.header_block, (std::vector<std::uint8_t>{0x82, 0x84}));
}

TEST(ProtocolRobustness, SelfDependencyInAddDoesNotCycle) {
  PriorityTree tree;
  tree.add(3, PrioritySpec{3, 16, false});  // self-dependency
  EXPECT_EQ(tree.parent_of(3), 0u);
  EXPECT_FALSE(tree.is_ancestor(3, 3));  // terminates
  tree.set_ready(3, true);
  EXPECT_EQ(tree.pick(), 3u);
  tree.remove(3);  // no UB / crash
  EXPECT_FALSE(tree.contains(3));
}

struct ConnPair {
  std::unique_ptr<Connection> client, server;
  std::vector<std::uint32_t> responded;
  std::vector<std::uint32_t> closed;

  explicit ConnPair(Connection::Config client_config = {}) {
    client_config.role = Role::kClient;
    Connection::Callbacks ccb;
    ccb.on_headers = [this](std::uint32_t stream, http::HeaderBlock, bool) {
      responded.push_back(stream);
    };
    client = std::make_unique<Connection>(client_config, std::move(ccb));
    Connection::Config sc;
    sc.role = Role::kServer;
    Connection::Callbacks scb;
    scb.on_headers = [this](std::uint32_t stream, http::HeaderBlock, bool) {
      http::Response resp;
      resp.body_size = 40000;
      server->submit_response(
          stream, resp.to_h2_headers(),
          std::make_shared<const std::string>(std::string(40000, 'x')));
    };
    server = std::make_unique<Connection>(sc, std::move(scb));
    client->start();
    server->start();
  }

  void pump() {
    for (int i = 0; i < 1000; ++i) {
      bool any = false;
      if (client->want_write()) {
        auto bytes = client->produce(1 << 16);
        if (!bytes.empty()) {
          server->receive(bytes);
          any = true;
        }
      }
      if (server->want_write()) {
        auto bytes = server->produce(1 << 16);
        if (!bytes.empty()) {
          client->receive(bytes);
          any = true;
        }
      }
      if (!any) return;
    }
  }
};

TEST(ProtocolRobustness, LargeHeaderTableSizeDoesNotError) {
  Connection::Config cc;
  cc.header_table_size = 16384;  // above the 4096 default
  ConnPair pair(cc);
  http::Request req;
  req.url = *http::parse_url("https://x.test/a");
  pair.client->submit_request(req.to_h2_headers());
  pair.pump();
  EXPECT_TRUE(pair.client->last_error().empty())
      << pair.client->last_error();
  EXPECT_TRUE(pair.server->last_error().empty())
      << pair.server->last_error();
  EXPECT_EQ(pair.responded.size(), 1u);
}

TEST(ProtocolRobustness, LateHeadersOnRstStreamAreDropped) {
  // Client resets a stream; a response that was already queued must not
  // resurrect it.
  Connection::Config cc;
  ConnPair pair(cc);
  http::Request req;
  req.url = *http::parse_url("https://x.test/cancelled");
  const auto id = pair.client->submit_request(req.to_h2_headers());
  // Deliver the request to the server (it queues its response)...
  auto bytes = pair.client->produce(1 << 16);
  pair.server->receive(bytes);
  // ...then reset before reading the response.
  pair.client->submit_rst(id, ErrorCode::kCancel);
  auto rst = pair.client->produce(1 << 16);
  pair.server->receive(rst);
  // The queued HEADERS still arrives at the client after its RST.
  pair.pump();
  EXPECT_TRUE(pair.responded.empty());
  EXPECT_EQ(pair.client->stream_state(id), StreamState::kClosed);
}

}  // namespace
}  // namespace h2push::h2
