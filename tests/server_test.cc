// Replay-server session tests: request matching, 404s, push policy
// application (authority filtering, trigger matching, ENABLE_PUSH), server
// think time, and the corked-response invariant that keeps scheduling
// decisions with the stream scheduler rather than submission order.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "h2/connection.h"
#include "server/replay_server.h"
#include "sim/simulator.h"

namespace h2push::server {
namespace {

struct ServerHarness {
  sim::Simulator sim;
  replay::RecordStore store;
  replay::OriginMap origins;
  std::map<std::string, PushPolicy> policies;
  std::unique_ptr<ReplayServer> server;
  std::unique_ptr<h2::Connection> client;
  std::map<std::uint32_t, std::string> bodies;
  std::map<std::uint32_t, int> statuses;
  std::vector<std::pair<std::uint32_t, std::string>> promises;  // id, path

  void add_resource(const std::string& host, const std::string& path,
                    std::size_t size, bool pushed_in_wild = false) {
    replay::RecordedExchange e;
    e.request.url = http::Url{"https", host, 443, path};
    e.response.status = 200;
    e.response.type = http::classify("", path);
    e.response.body_size = size;
    e.body = std::make_shared<const std::string>(std::string(size, 'z'));
    e.recorded_pushed = pushed_in_wild;
    store.add(std::move(e));
  }

  void start(std::optional<PushPolicy> policy = std::nullopt,
             sim::Time think = 0, bool client_push = true) {
    origins.generate_certificates();
    ReplayServer::Config config;
    config.store = &store;
    config.origins = &origins;
    if (policy) policies.emplace(policy->trigger_host, std::move(*policy));
    if (!policies.empty()) config.policies = &policies;
    if (think > 0) {
      // Server think time through the deferral hook, on the harness clock.
      config.defer = [this, think](std::function<void()> respond) {
        sim.schedule_in(think, std::move(respond));
      };
    }
    server = std::make_unique<ReplayServer>(std::move(config));

    h2::Connection::Config cc;
    cc.role = h2::Role::kClient;
    cc.enable_push = client_push;
    h2::Connection::Callbacks cbs;
    cbs.on_headers = [this](std::uint32_t stream, http::HeaderBlock headers,
                            bool) {
      statuses[stream] =
          std::atoi(std::string(http::find_header(headers, ":status")).c_str());
    };
    cbs.on_data = [this](std::uint32_t stream,
                         std::span<const std::uint8_t> data, bool) {
      bodies[stream].append(reinterpret_cast<const char*>(data.data()),
                            data.size());
    };
    cbs.on_push_promise = [this](std::uint32_t, std::uint32_t promised,
                                 http::HeaderBlock headers) {
      promises.emplace_back(
          promised, std::string(http::find_header(headers, ":path")));
    };
    client = std::make_unique<h2::Connection>(cc, std::move(cbs));
    client->start();
  }

  /// Exchange bytes and run the event loop until everything settles.
  void settle() {
    for (int i = 0; i < 10000; ++i) {
      bool any = false;
      if (client->want_write()) {
        auto bytes = client->produce(8192);
        if (!bytes.empty()) {
          server->connection().receive(bytes);
          any = true;
        }
      }
      if (server->connection().want_write()) {
        auto bytes = server->connection().produce(8192);
        if (!bytes.empty()) {
          client->receive(bytes);
          any = true;
        }
      }
      if (!any && !sim.step()) return;
    }
    FAIL() << "did not settle";
  }

  /// Drive the session in small server writes until the `push_index`-th
  /// promised push holds `push_size` body bytes. Returns how much of
  /// `parent`'s body had arrived by then, or nullopt if the push never
  /// completed.
  std::optional<std::size_t> parent_bytes_when_push_completes(
      std::uint32_t parent, std::size_t push_index, std::size_t push_size) {
    auto req = client->produce(8192);
    server->connection().receive(req);
    for (int i = 0; i < 1000; ++i) {
      auto bytes = server->connection().produce(2048);
      if (bytes.empty()) break;
      client->receive(bytes);
      auto back = client->produce(8192);
      if (!back.empty()) server->connection().receive(back);
      if (promises.size() > push_index &&
          bodies[promises[push_index].first].size() == push_size) {
        return bodies[parent].size();
      }
    }
    return std::nullopt;
  }

  std::uint32_t get(const std::string& host, const std::string& path) {
    http::Request req;
    req.url = http::Url{"https", host, 443, path};
    return client->submit_request(req.to_h2_headers());
  }
};

TEST(ReplayServer, ServesRecordedResponse) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/page", 4321);
  h.start();
  const auto id = h.get("a.test", "/page");
  h.settle();
  EXPECT_EQ(h.statuses[id], 200);
  EXPECT_EQ(h.bodies[id].size(), 4321u);
}

TEST(ReplayServer, Returns404ForUnknownPath) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/exists", 10);
  h.start();
  const auto id = h.get("a.test", "/missing");
  h.settle();
  EXPECT_EQ(h.statuses[id], 404);
  EXPECT_TRUE(h.bodies[id].empty());
}

TEST(ReplayServer, ServesMultipleHostsOnOneConnection) {
  // Connection coalescing: one server (IP) is authoritative for several
  // hosts and answers by :authority.
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.origins.add_host("static.a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  h.add_resource("static.a.test", "/s.css", 200);
  h.start();
  const auto a = h.get("a.test", "/");
  const auto b = h.get("static.a.test", "/s.css");
  h.settle();
  EXPECT_EQ(h.bodies[a].size(), 100u);
  EXPECT_EQ(h.bodies[b].size(), 200u);
}

TEST(ReplayServer, PushPolicyFiresOnTriggerOnly) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  h.add_resource("a.test", "/other", 50);
  h.add_resource("a.test", "/style.css", 300);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://a.test/style.css"};
  h.start(policy);
  const auto other = h.get("a.test", "/other");
  h.settle();
  EXPECT_TRUE(h.promises.empty()) << "non-trigger request caused a push";
  const auto main_id = h.get("a.test", "/");
  h.settle();
  ASSERT_EQ(h.promises.size(), 1u);
  EXPECT_EQ(h.promises[0].second, "/style.css");
  EXPECT_EQ(h.bodies[h.promises[0].first].size(), 300u);
  EXPECT_EQ(h.bodies[main_id].size(), 100u);
  EXPECT_EQ(h.bodies[other].size(), 50u);
  EXPECT_EQ(h.server->push_promises_sent(), 1u);
}

TEST(ReplayServer, NonAuthoritativePushesAreDropped) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.origins.add_host("evil.test", "10.6.6.6");
  h.add_resource("a.test", "/", 100);
  h.add_resource("evil.test", "/x.js", 50);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://evil.test/x.js"};  // RFC 7540 §10.1 violation
  h.start(policy);
  h.get("a.test", "/");
  h.settle();
  EXPECT_TRUE(h.promises.empty());
  EXPECT_EQ(h.server->push_promises_sent(), 0u);
}

TEST(ReplayServer, UnknownPushUrlsAreSkipped) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://a.test/not-recorded.css",
                      "not even a url"};
  h.start(policy);
  h.get("a.test", "/");
  h.settle();
  EXPECT_TRUE(h.promises.empty());
}

TEST(ReplayServer, ClientPushDisabledMeansNoPromises) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  h.add_resource("a.test", "/style.css", 300);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://a.test/style.css"};
  h.start(policy, 0, /*client_push=*/false);
  const auto id = h.get("a.test", "/");
  h.settle();
  EXPECT_TRUE(h.promises.empty());
  EXPECT_EQ(h.bodies[id].size(), 100u);  // response unaffected
}

TEST(ReplayServer, ThinkTimeDelaysResponse) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  h.start(std::nullopt, sim::from_ms(40));
  const auto id = h.get("a.test", "/");
  // Deliver the request but do not run timers yet: the server may flush
  // control frames (SETTINGS ack) but must not answer while "thinking".
  auto bytes = h.client->produce(8192);
  h.server->connection().receive(bytes);
  auto control = h.server->connection().produce(8192);
  h.client->receive(control);
  EXPECT_TRUE(h.bodies[id].empty());  // still thinking
  h.settle();  // runs the simulator clock
  EXPECT_EQ(h.bodies[id].size(), 100u);
  EXPECT_GT(h.sim.now(), 0);
}

TEST(ReplayServer, PushOrderFollowsPolicyOrder) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 100);
  h.add_resource("a.test", "/1.css", 10);
  h.add_resource("a.test", "/2.js", 10);
  h.add_resource("a.test", "/3.png", 10);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://a.test/2.js", "https://a.test/3.png",
                      "https://a.test/1.css"};
  h.start(policy);
  h.get("a.test", "/");
  h.settle();
  ASSERT_EQ(h.promises.size(), 3u);
  EXPECT_EQ(h.promises[0].second, "/2.js");
  EXPECT_EQ(h.promises[1].second, "/3.png");
  EXPECT_EQ(h.promises[2].second, "/1.css");
}

TEST(ReplayServer, InterleavingPolicyConfiguresScheduler) {
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 50000);
  h.add_resource("a.test", "/c.css", 8000);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.trigger_path = "/";
  policy.push_urls = {"https://a.test/c.css"};
  policy.interleaving = true;
  policy.interleave_offset = 4096;
  h.start(policy);
  const auto main_id = h.get("a.test", "/");
  // After the switch point, the pushed CSS must complete before the HTML
  // body continues.
  const auto html_at_css_done =
      h.parent_bytes_when_push_completes(main_id, 0, 8000);
  ASSERT_TRUE(html_at_css_done.has_value());
  EXPECT_LE(*html_at_css_done, 4096u);
  h.settle();
  EXPECT_EQ(h.bodies[main_id].size(), 50000u);
}

TEST(ReplayServer, PlainPolicyBesideInterleavingOneIsParentFirst) {
  // Only the matched policy decides whether the parent is held: an
  // interleaving policy for another host in the same table must not hold a
  // plain policy's parent.
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.origins.add_host("b.test", "10.0.0.1");
  h.add_resource("a.test", "/", 50000);
  h.add_resource("a.test", "/c.css", 8000);
  h.add_resource("b.test", "/", 50000);
  h.add_resource("b.test", "/c.css", 8000);
  PushPolicy interleaved;
  interleaved.trigger_host = "a.test";
  interleaved.push_urls = {"https://a.test/c.css"};
  interleaved.interleaving = true;
  interleaved.interleave_offset = 4096;
  h.policies.emplace("a.test", interleaved);
  PushPolicy plain;
  plain.trigger_host = "b.test";
  plain.push_urls = {"https://b.test/c.css"};
  h.policies.emplace("b.test", plain);
  h.start();
  const auto main_id = h.get("b.test", "/");
  EXPECT_EQ(h.parent_bytes_when_push_completes(main_id, 0, 8000), 50000u);
}

TEST(ReplayServer, SecondTriggerOnOneConnectionHoldsAtOffset) {
  // Each trigger request gets its own hold: the second landing page on one
  // connection is sent up to the offset, like the first, before its
  // critical push drains.
  ServerHarness h;
  h.origins.add_host("a.test", "10.0.0.1");
  h.add_resource("a.test", "/", 50000);
  h.add_resource("a.test", "/c.css", 8000);
  PushPolicy policy;
  policy.trigger_host = "a.test";
  policy.push_urls = {"https://a.test/c.css"};
  policy.interleaving = true;
  policy.interleave_offset = 4096;
  h.start(policy);
  const auto first = h.get("a.test", "/");
  EXPECT_EQ(h.parent_bytes_when_push_completes(first, 0, 8000), 4096u);
  h.settle();
  ASSERT_EQ(h.bodies[first].size(), 50000u);
  const auto second = h.get("a.test", "/");
  EXPECT_EQ(h.parent_bytes_when_push_completes(second, 1, 8000), 4096u);
  h.settle();
  EXPECT_EQ(h.bodies[second].size(), 50000u);
}

}  // namespace
}  // namespace h2push::server
