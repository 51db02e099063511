// Loopback integration tests for the live serving layer (src/net/).
//
// An in-process h2pushd core (net::Server) on an ephemeral port is driven
// by the repo's own client (net::fetch_urls / net::run_load) over real
// kernel TCP. The central oracle: every byte served live must equal the
// byte the replay store records — for both the parent-first and the
// interleaving scheduler, and for pushed as well as requested resources.
// This is the differential test between the event-driven daemon and the
// deterministic simulator the paper's testbed runs on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "http/url.h"
#include "net/client.h"
#include "net/corpus.h"
#include "net/server.h"

namespace h2push::net {
namespace {

LiveCorpusConfig corpus_config(SchedulerKind scheduler,
                               PushStrategySpec::Kind push) {
  LiveCorpusConfig config;
  config.profile = "top100";
  config.sites = 2;
  config.seed = 7;
  config.scheduler = scheduler;
  config.push.kind = push;
  return config;
}

ServerConfig server_config_for(const LiveCorpus& corpus) {
  ServerConfig sc;
  sc.store = &corpus.store;
  sc.origins = &corpus.origins;
  sc.policies = &corpus.policies;
  return sc;
}

/// Fetch every stored URL and require byte equality with the store.
void expect_store_equality(const LiveCorpus& corpus, std::uint16_t port,
                           bool enable_push) {
  FetchOptions options;
  options.enable_push = enable_push;
  const auto fetched = fetch_urls("127.0.0.1", port, corpus.all_urls, options);
  ASSERT_TRUE(fetched.has_value()) << fetched.error();
  ASSERT_EQ(corpus.all_urls.size(), fetched.value().size());
  for (const auto& [host, path] : corpus.all_urls) {
    const auto* expected = corpus.store.find(host, path);
    ASSERT_NE(nullptr, expected) << host << path;
    const auto it = fetched.value().find({host, path});
    ASSERT_NE(fetched.value().end(), it) << "missing " << host << path;
    EXPECT_EQ(expected->response.status, it->second.status)
        << host << path;
    EXPECT_EQ(*expected->body, it->second.body)
        << "body mismatch for " << host << path;
  }
}

TEST(LiveLoopback, ParentFirstServesStoreByteIdentical) {
  const auto cc = corpus_config(SchedulerKind::kParentFirst,
                                PushStrategySpec::Kind::kNone);
  const LiveCorpus corpus = build_live_corpus(cc);
  ASSERT_GT(corpus.all_urls.size(), 10u);
  Server server(server_config_for(corpus));
  ASSERT_TRUE(server.start()) << server.error();
  expect_store_equality(corpus, server.port(), /*enable_push=*/false);
  server.shutdown(2000);
  const auto stats = server.stats();
  EXPECT_EQ(corpus.all_urls.size(), stats.requests_served);
  EXPECT_EQ(0, server.live_connections());
}

TEST(LiveLoopback, InterleavingServesStoreByteIdentical) {
  const auto cc = corpus_config(SchedulerKind::kInterleaving,
                                PushStrategySpec::Kind::kAll);
  const LiveCorpus corpus = build_live_corpus(cc);
  Server server(server_config_for(corpus));
  ASSERT_TRUE(server.start()) << server.error();
  // Pushes disabled client-side: pure request/response under the modified
  // scheduler must still be byte-identical to the store.
  expect_store_equality(corpus, server.port(), /*enable_push=*/false);
  server.shutdown(2000);
}

TEST(LiveLoopback, PushedResourcesArriveByteIdentical) {
  const auto cc = corpus_config(SchedulerKind::kParentFirst,
                                PushStrategySpec::Kind::kAll);
  const LiveCorpus corpus = build_live_corpus(cc);
  ASSERT_FALSE(corpus.policies.empty());
  Server server(server_config_for(corpus));
  ASSERT_TRUE(server.start()) << server.error();

  // Request only the first site's landing page, push enabled: every URL in
  // that site's policy must arrive pushed, byte-identical to the store.
  const auto& [landing_host, landing_path] = corpus.landing_pages.front();
  const auto policy_it = corpus.policies.find(landing_host);
  ASSERT_NE(corpus.policies.end(), policy_it);
  ASSERT_FALSE(policy_it->second.push_urls.empty());

  FetchOptions options;
  options.enable_push = true;
  const auto fetched = fetch_urls("127.0.0.1", server.port(),
                                  {{landing_host, landing_path}}, options);
  ASSERT_TRUE(fetched.has_value()) << fetched.error();

  for (const auto& url_text : policy_it->second.push_urls) {
    const auto url = http::parse_url(url_text);
    ASSERT_TRUE(url.has_value()) << url_text;
    const auto it =
        fetched.value().find({url.value().host, url.value().path});
    ASSERT_NE(fetched.value().end(), it) << "not pushed: " << url_text;
    EXPECT_TRUE(it->second.pushed) << url_text;
    const auto* expected =
        corpus.store.find(url.value().host, url.value().path);
    ASSERT_NE(nullptr, expected);
    EXPECT_EQ(*expected->body, it->second.body)
        << "pushed body mismatch for " << url_text;
  }
  server.shutdown(2000);
}

TEST(LiveLoopback, InterleavingSchedulerAlsoPushesByteIdentical) {
  const auto cc = corpus_config(SchedulerKind::kInterleaving,
                                PushStrategySpec::Kind::kAll);
  const LiveCorpus corpus = build_live_corpus(cc);
  Server server(server_config_for(corpus));
  ASSERT_TRUE(server.start()) << server.error();

  const auto& [landing_host, landing_path] = corpus.landing_pages.front();
  FetchOptions options;
  options.enable_push = true;
  const auto fetched = fetch_urls("127.0.0.1", server.port(),
                                  {{landing_host, landing_path}}, options);
  ASSERT_TRUE(fetched.has_value()) << fetched.error();
  for (const auto& [key, response] : fetched.value()) {
    const auto* expected = corpus.store.find(key.first, key.second);
    ASSERT_NE(nullptr, expected) << key.first << key.second;
    EXPECT_EQ(*expected->body, response.body)
        << "mismatch for " << key.first << key.second;
  }
  // At least the landing page plus one pushed resource came back.
  EXPECT_GT(fetched.value().size(), 1u);
  server.shutdown(2000);
}

TEST(LiveLoopback, InterleavingCorpusIsServedInterleaved) {
  // The corpus policies alone pick the scheduler: a server given an
  // interleaving corpus and nothing else must interleave.
  const auto cc = corpus_config(SchedulerKind::kInterleaving,
                                PushStrategySpec::Kind::kAll);
  const LiveCorpus corpus = build_live_corpus(cc);
  const auto trace_dir = std::filesystem::temp_directory_path() /
                         "h2push_live_interleave_test";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directories(trace_dir);
  ServerConfig sc;
  sc.store = &corpus.store;
  sc.origins = &corpus.origins;
  sc.policies = &corpus.policies;
  sc.trace_dir = trace_dir.string();
  Server server(sc);
  ASSERT_TRUE(server.start()) << server.error();

  const auto& [landing_host, landing_path] = corpus.landing_pages.front();
  FetchOptions options;
  options.enable_push = true;
  const auto fetched = fetch_urls("127.0.0.1", server.port(),
                                  {{landing_host, landing_path}}, options);
  ASSERT_TRUE(fetched.has_value()) << fetched.error();
  server.shutdown(2000);

  bool interleaved = false;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (text.find("interleave.configure") != std::string::npos) {
      interleaved = true;
    }
  }
  EXPECT_TRUE(interleaved);
  std::filesystem::remove_all(trace_dir);
}

TEST(LiveLoopback, MultiThreadLoadSmoke) {
  const auto cc = corpus_config(SchedulerKind::kParentFirst,
                                PushStrategySpec::Kind::kNone);
  const LiveCorpus corpus = build_live_corpus(cc);
  ServerConfig sc = server_config_for(corpus);
  sc.threads = 2;
  Server server(sc);
  ASSERT_TRUE(server.start()) << server.error();

  LoadConfig load;
  load.port = server.port();
  load.connections = 4;
  load.threads = 2;
  load.max_concurrent_streams = 4;
  load.duration_s = 0.5;
  load.urls = &corpus.all_urls;
  const LoadResult result = run_load(load);
  EXPECT_EQ(0u, result.connection_errors);
  EXPECT_GT(result.requests_ok, 0u);
  EXPECT_GT(result.bytes_read, 0u);
  EXPECT_FALSE(result.latency_ms.empty());

  server.shutdown(2000);
  const auto stats = server.stats();
  EXPECT_GE(stats.requests_served, result.requests_ok);
  EXPECT_EQ(0, server.live_connections());
}

TEST(LiveLoopback, GracefulShutdownDrainsInFlightWork) {
  const auto cc = corpus_config(SchedulerKind::kParentFirst,
                                PushStrategySpec::Kind::kNone);
  const LiveCorpus corpus = build_live_corpus(cc);
  Server server(server_config_for(corpus));
  ASSERT_TRUE(server.start()) << server.error();
  // Serve something, then shut down; the drain path (GOAWAY, close on
  // quiescence) must terminate promptly with no connection left behind.
  expect_store_equality(corpus, server.port(), /*enable_push=*/false);
  server.shutdown(5000);
  EXPECT_EQ(0, server.live_connections());
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, stats.connections_closed);
}

TEST(LiveLoopback, PerConnectionTraceFilesWritten) {
  const auto cc = corpus_config(SchedulerKind::kParentFirst,
                                PushStrategySpec::Kind::kNone);
  const LiveCorpus corpus = build_live_corpus(cc);
  ServerConfig sc = server_config_for(corpus);
  const auto trace_dir =
      std::filesystem::temp_directory_path() / "h2push_live_trace_test";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directories(trace_dir);
  sc.trace_dir = trace_dir.string();
  Server server(sc);
  ASSERT_TRUE(server.start()) << server.error();
  expect_store_equality(corpus, server.port(), /*enable_push=*/false);
  server.shutdown(2000);

  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    if (entry.path().extension() == ".json") ++traces;
    EXPECT_GT(std::filesystem::file_size(entry.path()), 2u);
  }
  EXPECT_GE(traces, 1u);
  std::filesystem::remove_all(trace_dir);
}

}  // namespace
}  // namespace h2push::net
