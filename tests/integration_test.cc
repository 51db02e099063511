// End-to-end integration: full page loads through the synthesized corpus,
// the TCP model, both H2 endpoints and the renderer.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/critical_css.h"
#include "core/dependency.h"
#include "core/optimize.h"
#include "core/strategy.h"
#include "core/sim_transport.h"
#include "core/testbed.h"
#include "h2/connection.h"
#include "http1/connection.h"
#include "server/h1_replay_server.h"
#include "server/replay_server.h"
#include "sim/link.h"
#include "sim/tcp.h"
#include "http/url.h"
#include "web/profiles.h"
#include "web/site.h"
#include "web/transform.h"

// Replaces this binary's global operator new (PageLoad.AllocationBudget).
#include "counting_allocator.h"

namespace h2push {
namespace {

using web::PagePlan;
using web::ResourcePlan;
using Placement = web::ResourcePlan::Placement;

/// A small single-origin page: head CSS + sync JS, a hero image, a hidden
/// font behind the CSS, and some body images.
PagePlan small_plan() {
  PagePlan plan;
  plan.name = "smoke";
  plan.primary_host = "www.smoke.test";
  plan.html_size = 24 * 1024;
  plan.text_blocks = 12;
  plan.host_ip[plan.primary_host] = "10.0.0.1";

  ResourcePlan css;
  css.path = "/static/main.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 14 * 1024;
  css.placement = Placement::kHead;
  plan.resources.push_back(css);

  ResourcePlan js;
  js.path = "/static/app.js";
  js.host = plan.primary_host;
  js.type = http::ResourceType::kJs;
  js.size = 30 * 1024;
  js.placement = Placement::kHead;
  plan.resources.push_back(js);

  ResourcePlan font;
  font.path = "/fonts/brand.woff2";
  font.host = plan.primary_host;
  font.type = http::ResourceType::kFont;
  font.size = 20 * 1024;
  font.placement = Placement::kFromCss;
  font.css_parent = "/static/main.css";
  font.font_family = "brand";
  font.above_fold = true;
  plan.resources.push_back(font);

  ResourcePlan hero;
  hero.path = "/img/hero.png";
  hero.host = plan.primary_host;
  hero.type = http::ResourceType::kImage;
  hero.size = 60 * 1024;
  hero.placement = Placement::kBodyEarly;
  hero.above_fold = true;
  hero.display_width = 800;
  hero.display_height = 300;
  plan.resources.push_back(hero);

  for (int i = 0; i < 4; ++i) {
    ResourcePlan img;
    img.path = "/img/photo" + std::to_string(i) + ".jpg";
    img.host = plan.primary_host;
    img.type = http::ResourceType::kImage;
    img.size = 25 * 1024;
    img.placement = Placement::kBodyMiddle;
    plan.resources.push_back(img);
  }
  return plan;
}

PagePlan multi_origin_plan() {
  PagePlan plan = small_plan();
  plan.name = "smoke-multi";
  // Third-party analytics script and CDN images on other IPs.
  ResourcePlan tracker;
  tracker.path = "/t.js";
  tracker.host = "analytics.example";
  tracker.type = http::ResourceType::kJs;
  tracker.size = 18 * 1024;
  tracker.placement = Placement::kBodyLate;
  tracker.async = true;
  plan.resources.push_back(tracker);

  ResourcePlan cdn_img;
  cdn_img.path = "/cdn/banner.png";
  cdn_img.host = "cdn.smoke.test";
  cdn_img.type = http::ResourceType::kImage;
  cdn_img.size = 40 * 1024;
  cdn_img.placement = Placement::kBodyMiddle;
  plan.resources.push_back(cdn_img);

  plan.host_ip["analytics.example"] = "10.9.9.9";
  plan.host_ip["cdn.smoke.test"] = "10.0.0.1";  // co-hosted: pushable
  return plan;
}

TEST(Integration, NoPushLoadCompletes) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  const auto result = core::run_page_load(site, core::no_push(), cfg);
  ASSERT_TRUE(result.complete);
  // 1 HTML + css + js + font + 5 images = 9 requests.
  EXPECT_EQ(result.num_requests, 9u);
  EXPECT_EQ(result.num_pushed, 0u);
  EXPECT_EQ(result.bytes_pushed, 0u);
  EXPECT_GT(result.plt_ms, 100.0);       // multiple RTTs at 50 ms
  EXPECT_LT(result.plt_ms, 5000.0);
  EXPECT_GT(result.speed_index_ms, 0.0);
  EXPECT_GT(result.first_paint_ms, 0.0);
  EXPECT_LE(result.first_paint_ms, result.last_visual_change_ms);
}

TEST(Integration, PushAllDeliversPushedStreams) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  auto strategy = core::push_all(site, web::resource_urls(site));
  const auto result = core::run_page_load(site, strategy, cfg);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.num_pushed, 8u);  // every subresource was pushed
  EXPECT_GT(result.bytes_pushed, 0u);
}

TEST(Integration, DeterministicAcrossIdenticalRuns) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  cfg.seed = 42;
  cfg.run_index = 7;
  const auto a = core::run_page_load(site, core::no_push(), cfg);
  const auto b = core::run_page_load(site, core::no_push(), cfg);
  EXPECT_DOUBLE_EQ(a.plt_ms, b.plt_ms);
  EXPECT_DOUBLE_EQ(a.speed_index_ms, b.speed_index_ms);
  EXPECT_EQ(a.bytes_total, b.bytes_total);
}

TEST(Integration, RunsDifferAcrossRunIndex) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  cfg.run_index = 0;
  const auto a = core::run_page_load(site, core::no_push(), cfg);
  cfg.run_index = 1;
  const auto b = core::run_page_load(site, core::no_push(), cfg);
  EXPECT_NE(a.plt_ms, b.plt_ms);  // compute jitter differs per run
}

TEST(Integration, ThirdPartyIsNotPushable) {
  auto site = web::build_site(multi_origin_plan());
  const auto pushable = web::pushable_urls(site);
  // analytics.example resolves to a different IP → not pushable; the
  // co-hosted CDN is pushable thanks to the generated SAN certificate.
  EXPECT_EQ(pushable.size(), site.plan.resources.size() - 1);
  auto strategy = core::push_all(site, web::resource_urls(site));
  EXPECT_EQ(strategy.push_urls.size(), pushable.size());

  core::RunConfig cfg;
  const auto result = core::run_page_load(site, strategy, cfg);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.num_pushed, pushable.size());
}

TEST(Integration, PushVsNoPushBytesMatch) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  const auto np = core::run_page_load(site, core::no_push(), cfg);
  const auto pa = core::run_page_load(
      site, core::push_all(site, web::resource_urls(site)), cfg);
  // Same bodies get delivered either way.
  EXPECT_EQ(np.bytes_total, pa.bytes_total);
}

TEST(Integration, ResourceSizesMatchRecordedBodies) {
  // The browser keeps the bytes of stylesheets and HTML only and counts
  // every other response (browser/fetch.h); the count must still equal the
  // recorded body, over H1 and H2, pushed or not.
  for (int w = 1; w <= 20; ++w) {
    const web::Site site = web::make_w_site(w).site;
    const core::Strategy no_push = core::no_push();
    const core::Strategy push_all =
        core::push_all(site, web::resource_urls(site));
    for (const bool http1 : {false, true}) {
      for (const auto* strategy : {&no_push, &push_all}) {
        SCOPED_TRACE("w" + std::to_string(w) + (http1 ? " h1 " : " h2 ") +
                     strategy->name);
        core::RunConfig cfg;
        cfg.browser.use_http1 = http1;
        const auto result = core::run_page_load(site, *strategy, cfg);
        std::size_t checked = 0;
        for (const auto& rt : result.resources) {
          // A fetch that never completed reports completion at sim time -1,
          // before its initiation (some H1 loads miss the deadline).
          if (rt.t_complete_ms < rt.t_initiated_ms) continue;
          ++checked;
          const auto url = http::parse_url(rt.url);
          ASSERT_TRUE(url.has_value()) << rt.url;
          const auto* recorded = site.store->find(url->host, url->path);
          ASSERT_NE(recorded, nullptr) << rt.url;
          EXPECT_EQ(rt.size, recorded->body->size()) << rt.url;
        }
        EXPECT_GT(checked, 1u);
      }
    }
  }
}

TEST(Integration, DependencyAnalysisFindsAllSubresources) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  const auto order = core::compute_push_order(site, cfg, 7);
  EXPECT_EQ(order.order.size(), site.plan.resources.size());
  // The render-blocking CSS must rank above the body images.
  std::size_t css_rank = 999, img_rank = 0;
  for (std::size_t i = 0; i < order.order.size(); ++i) {
    if (order.order[i].find("main.css") != std::string::npos) css_rank = i;
    if (order.order[i].find("photo3") != std::string::npos) img_rank = i;
  }
  EXPECT_LT(css_rank, img_rank);
}

TEST(Integration, CriticalCssExtractionIsSmallerAndCoversFonts) {
  auto site = web::build_site(small_plan());
  const auto analysis = core::analyze_critical(site);
  ASSERT_FALSE(analysis.critical_css_text.empty());
  EXPECT_LT(analysis.critical_css_text.size(), analysis.original_css_bytes);
  ASSERT_EQ(analysis.fonts.size(), 1u);
  EXPECT_NE(analysis.fonts[0].find("brand.woff2"), std::string::npos);
  ASSERT_EQ(analysis.blocking_js.size(), 1u);
  ASSERT_EQ(analysis.af_images.size(), 1u);
}

TEST(Integration, OptimizedSiteLoadsAndInterleavingWorks) {
  auto site = web::build_site(small_plan());
  core::RunConfig cfg;
  const auto order = core::compute_push_order(site, cfg, 5);
  const auto arms = core::make_fig6_arms(site, order.order);
  for (const auto& arm : arms.arms()) {
    const auto result = core::run_page_load(*arm.site, arm.strategy, cfg);
    EXPECT_TRUE(result.complete) << arm.name;
    EXPECT_GT(result.speed_index_ms, 0.0) << arm.name;
  }
}

TEST(Integration, RelocatedSiteServesEverythingFromOneServer) {
  auto site = web::build_site(multi_origin_plan());
  const auto relocated = web::relocate_single_server(site);
  EXPECT_EQ(relocated.origins.server_count(), 1u);
  EXPECT_EQ(web::pushable_urls(relocated).size(),
            relocated.plan.resources.size());
  core::RunConfig cfg;
  const auto result = core::run_page_load(relocated, core::no_push(), cfg);
  ASSERT_TRUE(result.complete);
}

TEST(SimTransport, DataPayloadAliasesReplayBody) {
  // One w-site's exchanges fetched over the testbed's transport (simulated
  // TCP to a ReplayServer), the landing page pushing every pushable object:
  // every on_data span lies inside the storage of the replay-store body it
  // belongs to, so no layer between the store and the receiving connection
  // copied the payload. Images and scripts are most of the bytes.
  const web::Site site = web::make_w_site(7).site;
  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.rate_bps = 16e6;
  down_cfg.prop_delay = sim::from_ms(2);
  sim::LinkConfig up_cfg = down_cfg;
  up_cfg.rate_bps = 1e6;
  sim::Link down(sim, down_cfg, util::Rng(1));
  sim::Link up(sim, up_cfg, util::Rng(2));
  std::map<std::string, server::PushPolicy> policies;
  server::PushPolicy& policy = policies[site.main_url.host];
  policy.trigger_host = site.main_url.host;
  policy.trigger_path = site.main_url.path;
  policy.push_urls = web::pushable_urls(site);
  server::ReplayServer::Config sc;
  sc.store = site.store.get();
  sc.origins = &site.origins;
  sc.policies = &policies;
  core::SimTransport<server::ReplayServer> transport(
      sim, sim::Route{&up, sim::from_ms(23)},
      sim::Route{&down, sim::from_ms(23)}, std::move(sc), nullptr, 0, 0);

  std::map<std::uint32_t, const replay::RecordedExchange*> by_stream;
  std::map<const replay::RecordedExchange*, std::size_t> received;
  std::size_t spans = 0;
  std::size_t image_or_script_spans = 0;
  std::size_t outside = 0;
  std::size_t pushed_streams = 0;
  h2::Connection::Config cc;
  cc.role = h2::Role::kClient;
  h2::Connection::Callbacks cbs;
  cbs.on_push_promise = [&](std::uint32_t, std::uint32_t promised,
                            http::HeaderBlock headers) {
    by_stream[promised] =
        site.store->find(std::string(http::find_header(headers, ":authority")),
                         std::string(http::find_header(headers, ":path")));
    ++pushed_streams;
  };
  cbs.on_data = [&](std::uint32_t stream, std::span<const std::uint8_t> data,
                    bool) {
    const auto it = by_stream.find(stream);
    ASSERT_TRUE(it != by_stream.end() && it->second != nullptr);
    const std::string& body = *it->second->body;
    const std::less<const std::uint8_t*> before;
    const auto* lo = reinterpret_cast<const std::uint8_t*>(body.data());
    const bool inside = !before(data.data(), lo) &&
                        !before(lo + body.size(), data.data() + data.size());
    if (!inside) ++outside;
    ++spans;
    const auto type = it->second->response.type;
    if (type == http::ResourceType::kImage ||
        type == http::ResourceType::kJs) {
      ++image_or_script_spans;
    }
    received[it->second] += data.size();
  };
  h2::Connection client(cc, std::move(cbs));
  const auto pump = [&] {
    while (transport.writable() && client.want_write()) {
      if (transport.write([&](util::PieceSink& out, std::size_t max_bytes) {
            client.produce(out, max_bytes);
          }) == 0) {
        break;
      }
    }
  };
  transport.set_receiver([&](std::span<const util::Piece> pieces) {
    client.receive(pieces);
    pump();
  });
  transport.set_writable_callback(pump);
  transport.connect([&] {
    client.start();
    // The landing page first (it triggers the pushes), then every other
    // exchange the store holds.
    const auto* main = site.find(site.main_url);
    ASSERT_NE(main, nullptr);
    by_stream[client.submit_request(main->request.to_h2_headers())] = main;
    for (const auto& exchange : site.store->all()) {
      if (&exchange == main) continue;
      by_stream[client.submit_request(exchange.request.to_h2_headers())] =
          &exchange;
    }
    pump();
  });
  sim.run();

  EXPECT_GT(pushed_streams, 0u);
  EXPECT_GT(image_or_script_spans, 0u);
  EXPECT_EQ(outside, 0u) << outside << " of " << spans
                         << " on_data spans were copies";
  // Every body arrived whole, once per request and once more if pushed.
  for (const auto& exchange : site.store->all()) {
    if (!exchange.body || exchange.body->empty()) continue;
    const std::size_t bytes = received[&exchange];
    EXPECT_TRUE(bytes == exchange.body->size() ||
                bytes == 2 * exchange.body->size())
        << exchange.request.url.str() << ": " << bytes;
  }
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();
}

TEST(SimTransport, H1BodyAliasesReplayBody) {
  // The HTTP/1.1 arm's byte path: one w-site's exchanges fetched in order
  // over the testbed's transport (simulated TCP to an H1ReplayServer).
  // Every on_body_data span lies inside the storage of the replay-store
  // body it belongs to, so neither the server's outbox, the TCP send
  // buffer nor the client copied it; and a delivery's body bytes reach
  // on_body_data in one call, as they did when deliveries were flattened.
  // The downlink loses packets, so repairs deliver bytes the server wrote
  // in several writes at once.
  const web::Site site = web::make_w_site(7).site;
  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.rate_bps = 16e6;
  down_cfg.prop_delay = sim::from_ms(2);
  sim::LinkConfig up_cfg = down_cfg;
  up_cfg.rate_bps = 1e6;
  down_cfg.random_loss = 0.02;
  sim::Link down(sim, down_cfg, util::Rng(1));
  sim::Link up(sim, up_cfg, util::Rng(2));
  server::H1ReplayServer::Config sc;
  sc.store = site.store.get();
  core::SimTransport<server::H1ReplayServer> transport(
      sim, sim::Route{&up, sim::from_ms(23)},
      sim::Route{&down, sim::from_ms(23)}, std::move(sc), nullptr, 0, 0);

  std::deque<const replay::RecordedExchange*> requested;
  const replay::RecordedExchange* current = nullptr;
  std::map<const replay::RecordedExchange*, std::size_t> received;
  std::size_t spans = 0;
  std::size_t outside = 0;
  std::size_t calls_this_delivery = 0;
  std::size_t deliveries_with_two_calls = 0;
  std::size_t deliveries_over_one_write = 0;
  http1::ClientConnection::Callbacks cbs;
  cbs.on_headers = [&](const http::HeaderBlock&, int status) {
    ASSERT_FALSE(requested.empty());
    current = requested.front();
    requested.pop_front();
    EXPECT_EQ(status, 200) << current->request.url.str();
  };
  cbs.on_body_data = [&](std::span<const std::uint8_t> data, bool) {
    ASSERT_NE(current, nullptr);
    if (data.empty()) return;
    const std::string& body = *current->body;
    const std::less<const std::uint8_t*> before;
    const auto* lo = reinterpret_cast<const std::uint8_t*>(body.data());
    const bool inside = !before(data.data(), lo) &&
                        !before(lo + body.size(), data.data() + data.size());
    if (!inside) ++outside;
    ++spans;
    if (++calls_this_delivery == 2) ++deliveries_with_two_calls;
    received[current] += data.size();
  };
  http1::ClientConnection client(std::move(cbs));
  const auto pump = [&] {
    while (transport.writable() && client.want_write()) {
      if (transport.write([&](util::PieceSink& out, std::size_t max_bytes) {
            client.produce(out, max_bytes);
          }) == 0) {
        break;
      }
    }
  };
  transport.set_receiver([&](std::span<const util::Piece> pieces) {
    std::size_t bytes = 0;
    for (const util::Piece& piece : pieces) bytes += piece.bytes.size();
    if (bytes > sim::kWriteWatermark) ++deliveries_over_one_write;
    calls_this_delivery = 0;
    client.receive(pieces);
    pump();
  });
  transport.set_writable_callback(pump);
  transport.connect([&] {
    for (const auto& exchange : site.store->all()) {
      requested.push_back(&exchange);
      client.submit_request(exchange.request);
    }
    pump();
  });
  sim.run();

  EXPECT_TRUE(requested.empty());
  EXPECT_GT(spans, site.store->all().size());
  EXPECT_EQ(outside, 0u) << outside << " of " << spans
                         << " on_body_data spans were copies";
  EXPECT_GT(deliveries_over_one_write, 0u);
  EXPECT_EQ(deliveries_with_two_calls, 0u);
  for (const auto& exchange : site.store->all()) {
    const std::size_t size = exchange.body ? exchange.body->size() : 0;
    EXPECT_EQ(received[&exchange], size) << exchange.request.url.str();
  }
}

TEST(WriteParity, TcpWriteDeliversWhatTheFlatProduceWrites) {
  // The simulator's write path (produce straight into the TCP send buffer,
  // response bodies by reference) and the live daemon's (produce flat into
  // its socket buffer) must put the same bytes on the wire. Two identical
  // server connections get the same requests and bodies; one is drained
  // flat, the other through TcpConnection::write into a lossless simulated
  // connection, and the client's delivered stream must equal the flat
  // bytes for budgets from one MSS to the daemon's 256 KiB watermark.
  const auto body_of = [](std::size_t size, std::uint8_t salt) {
    std::string bytes(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<char>((i * 7 + salt) % 251);
    }
    return std::make_shared<const std::string>(std::move(bytes));
  };
  const std::vector<h2::Body> bodies = {body_of(120'000, 1), body_of(5'000, 2),
                                        body_of(40'000, 3)};
  const h2::Body pushed_body = body_of(30'000, 4);
  const auto request_for = [](const std::string& path) {
    http::Request request;
    request.url = http::Url{"https", "parity.test", 443, path};
    return request.to_h2_headers();
  };
  const auto response_for = [](const h2::Body& body) {
    http::Response response;
    response.status = 200;
    response.body_size = body->size();
    return response.to_h2_headers();
  };

  for (const std::size_t budget : {1460u, 2920u, 16384u, 262144u}) {
    SCOPED_TRACE(budget);
    h2::Connection::Config cc;
    cc.role = h2::Role::kClient;
    cc.initial_window = 1u << 24;
    cc.connection_window_bonus = 1u << 24;
    h2::Connection client(cc, {});
    client.start();
    for (const char* path : {"/index.html", "/style.css", "/app.js"}) {
      client.submit_request(request_for(path));
    }
    const std::vector<std::uint8_t> requests = client.produce(1 << 20);

    // Each server answers every request and pushes one more response on
    // the first stream.
    const auto make_server = [&] {
      auto streams = std::make_shared<std::vector<std::uint32_t>>();
      h2::Connection::Config sc;
      sc.role = h2::Role::kServer;
      h2::Connection::Callbacks cbs;
      cbs.on_headers = [streams](std::uint32_t stream, http::HeaderBlock,
                                 bool) { streams->push_back(stream); };
      auto server = std::make_unique<h2::Connection>(sc, std::move(cbs));
      server->receive(requests);
      EXPECT_EQ(streams->size(), bodies.size());
      const std::uint32_t promised = server->submit_push_promise(
          streams->front(), request_for("/pushed.png"));
      EXPECT_NE(promised, 0u);
      for (std::size_t i = 0; i < streams->size(); ++i) {
        server->submit_response((*streams)[i], response_for(bodies[i]),
                                bodies[i]);
      }
      server->submit_response(promised, response_for(pushed_body),
                              pushed_body);
      return server;
    };

    // The daemon's way: flat, one budget at a time.
    const auto flat_server = make_server();
    std::vector<std::uint8_t> flat;
    while (flat_server->want_write()) {
      if (flat_server->produce(flat, budget) == 0) break;
    }

    // The simulator's way: into the send buffer, whenever it is writable.
    const auto sim_server = make_server();
    sim::Simulator sim;
    sim::LinkConfig down_cfg;
    down_cfg.rate_bps = 16e6;
    down_cfg.prop_delay = sim::from_ms(2);
    sim::LinkConfig up_cfg = down_cfg;
    up_cfg.rate_bps = 1e6;
    sim::Link down(sim, down_cfg, util::Rng(1));
    sim::Link up(sim, up_cfg, util::Rng(2));
    std::vector<std::uint8_t> delivered;
    std::size_t shared_pieces = 0;
    std::unique_ptr<sim::TcpConnection> tcp;
    const auto pump = [&] {
      while (tcp->writable(sim::TcpConnection::Side::kServer) &&
             sim_server->want_write()) {
        if (tcp->write(sim::TcpConnection::Side::kServer,
                       [&](util::PieceSink& out) {
                         sim_server->produce(out, budget);
                       }) == 0) {
          break;
        }
      }
    };
    sim::TcpConnection::Callbacks cbs;
    cbs.on_accepted = pump;
    cbs.on_writable = [&](sim::TcpConnection::Side side) {
      if (side == sim::TcpConnection::Side::kServer) pump();
    };
    cbs.on_deliver = [&](sim::TcpConnection::Side side,
                         std::span<const util::Piece> pieces) {
      if (side != sim::TcpConnection::Side::kClient) return;
      for (const util::Piece& piece : pieces) {
        if (piece.owner != nullptr) ++shared_pieces;
        delivered.insert(delivered.end(), piece.bytes.begin(),
                         piece.bytes.end());
      }
    };
    tcp = std::make_unique<sim::TcpConnection>(
        sim, sim::TcpConfig{}, sim::Route{&up, sim::from_ms(23)},
        sim::Route{&down, sim::from_ms(23)}, std::move(cbs));
    tcp->connect();
    sim.run();

    EXPECT_EQ(tcp->retransmissions(), 0u);
    EXPECT_GT(shared_pieces, 0u);
    EXPECT_GT(flat.size(), 195'000u);  // every body, plus the frames
    EXPECT_TRUE(delivered == flat)
        << delivered.size() << " bytes delivered, " << flat.size()
        << " written flat";
    // And the stream is a valid server conversation.
    client.receive(delivered);
    EXPECT_TRUE(client.last_error().empty()) << client.last_error();
  }
}

// Heap allocations of one cold page load: three w-sites under the three
// perfbench sim_cold arms, counted on the second identical load so the
// process-wide stylesheet memo is warm. Each ceiling is the count of the
// code that set it. A change may lower a ceiling to its new count; it may
// never raise one.
TEST(PageLoad, AllocationBudget) {
  struct Budget {
    int site;
    std::size_t no_push, push_all, interleaved;
  };
  constexpr Budget kBudgets[] = {
      {1, 1391, 1419, 1362},
      {7, 1839, 1810, 1729},
      {17, 14521, 14530, 14251},
  };
  for (const Budget& budget : kBudgets) {
    const auto site = web::make_w_site(budget.site).site;
    const auto order = web::pushable_urls(site);
    core::Strategy interleaved = core::push_all(site, order);
    interleaved.interleaving = true;
    interleaved.interleave_offset = core::head_end_offset(site);
    const std::pair<core::Strategy, std::size_t> arms[] = {
        {core::no_push(), budget.no_push},
        {core::push_all(site, order), budget.push_all},
        {std::move(interleaved), budget.interleaved},
    };
    for (const auto& [strategy, ceiling] : arms) {
      const core::RunConfig config;
      core::run_page_load(site, strategy, config);
      const std::size_t before = test_allocation_count();
      const auto result = core::run_page_load(site, strategy, config);
      const std::size_t allocations = test_allocation_count() - before;
      ASSERT_TRUE(result.complete);
      EXPECT_LE(allocations, ceiling)
          << "w" << budget.site << " " << strategy.name << ": "
          << allocations << " allocations per load";
    }
  }
}

}  // namespace
}  // namespace h2push
