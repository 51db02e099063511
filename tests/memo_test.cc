// Content-addressed run memoization (core/memo.h, util/hash.h):
// canonical-key stability and sensitivity, byte-identity of cached results
// under serial and parallel execution, the persistent store's corruption
// handling, and the recompute-and-compare verify mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/memo.h"
#include "core/runner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "trace/trace.h"
#include "util/hash.h"
#include "web/corpus.h"
#include "web/site.h"

namespace h2push::core {
namespace {

namespace fs = std::filesystem;

web::Site fixture_site(const char* name = "memo-fixture",
                       std::size_t hero_kb = 40) {
  web::PagePlan plan;
  plan.name = name;
  plan.primary_host = "www.memo.test";
  plan.html_size = 16 * 1024;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  plan.host_ip["cdn.other.net"] = "10.7.7.7";
  using P = web::ResourcePlan::Placement;
  auto add = [&](const char* path, http::ResourceType type, std::size_t kb,
                 P placement, const char* host = nullptr) {
    web::ResourcePlan r;
    r.path = path;
    r.host = host ? host : plan.primary_host;
    r.type = type;
    r.size = kb * 1024;
    r.placement = placement;
    plan.resources.push_back(r);
  };
  add("/a.css", http::ResourceType::kCss, 10, P::kHead);
  add("/b.js", http::ResourceType::kJs, 20, P::kHead);
  add("/hero.png", http::ResourceType::kImage, hero_kb, P::kBodyEarly);
  add("/third.js", http::ResourceType::kJs, 15, P::kBodyLate,
      "cdn.other.net");
  return web::build_site(plan);
}

fs::path fresh_dir(const char* leaf) {
  const fs::path dir = fs::path(testing::TempDir()) / leaf;
  fs::remove_all(dir);
  return dir;
}

std::vector<fs::path> entry_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".bin") {
      out.push_back(e.path());
    }
  }
  return out;
}

// ------------------------------------------------------- canonical hashing

TEST(CanonicalHasher, FieldOrderDoesNotChangeHash) {
  util::CanonicalHasher a;
  a.field("alpha", std::uint64_t{7});
  a.field("beta", 2.5);
  a.field("gamma", std::string_view("xyz"));

  util::CanonicalHasher b;
  b.field("gamma", std::string_view("xyz"));
  b.field("alpha", std::uint64_t{7});
  b.field("beta", 2.5);

  EXPECT_EQ(a.finish(), b.finish());
}

TEST(CanonicalHasher, OmittedDefaultEqualsAbsentField) {
  // A new knob added at its pinned default must not invalidate old keys.
  util::CanonicalHasher with_default;
  with_default.field("alpha", std::uint64_t{7});
  with_default.field_default("new_knob", 0.5, 0.5);

  util::CanonicalHasher without;
  without.field("alpha", std::uint64_t{7});
  EXPECT_EQ(with_default.finish(), without.finish());

  util::CanonicalHasher changed;
  changed.field("alpha", std::uint64_t{7});
  changed.field_default("new_knob", 0.75, 0.5);
  EXPECT_NE(changed.finish(), without.finish());
}

TEST(CanonicalHasher, ValueTypeAndNameAreAllSignificant) {
  const auto hash_of = [](auto fn) {
    util::CanonicalHasher h;
    fn(h);
    return h.finish();
  };
  const auto base =
      hash_of([](auto& h) { h.field("f", std::uint64_t{1}); });
  // Same bits, different type.
  EXPECT_NE(base, hash_of([](auto& h) { h.field("f", std::int64_t{1}); }));
  // Different value.
  EXPECT_NE(base, hash_of([](auto& h) { h.field("f", std::uint64_t{2}); }));
  // Name/value boundary cannot be shifted.
  EXPECT_NE(hash_of([](auto& h) { h.field("ab", std::string_view("c")); }),
            hash_of([](auto& h) { h.field("a", std::string_view("bc")); }));
}

// ------------------------------------------------------------- key derivation

TEST(RunKey, SemanticChangesChangeKeyCosmeticsDoNot) {
  const auto site = fixture_site();
  RunCache cache;
  Strategy strategy = no_push();
  RunConfig cfg;
  const auto base = cache.key(site, strategy, cfg);

  // Stable across calls (the site hash is memoized on the second one).
  EXPECT_EQ(base, cache.key(site, strategy, cfg));

  // The strategy name is cosmetic: learner candidates that alias the same
  // configuration must hit.
  Strategy renamed = strategy;
  renamed.name = "baseline-relabeled";
  EXPECT_EQ(base, cache.key(site, renamed, cfg));

  RunConfig seed = cfg;
  seed.seed = 99;
  EXPECT_NE(base, cache.key(site, strategy, seed));

  RunConfig index = cfg;
  index.run_index = 3;
  EXPECT_NE(base, cache.key(site, strategy, index));

  RunConfig net = cfg;
  net.net.base_rtt = sim::from_ms(100);
  EXPECT_NE(base, cache.key(site, strategy, net));

  RunConfig loss = cfg;
  loss.net.max_loss = 0.01;
  EXPECT_NE(base, cache.key(site, strategy, loss));

  Strategy push = strategy;
  push.client_push_enabled = true;
  push.push_urls = {"https://www.memo.test/a.css"};
  EXPECT_NE(base, cache.key(site, push, cfg));

  Strategy interleaved = push;
  interleaved.interleaving = true;
  EXPECT_NE(cache.key(site, push, cfg), cache.key(site, interleaved, cfg));
}

TEST(RunKey, EveryKeyedConfigFieldChangesKey) {
  const auto site = fixture_site();
  RunCache cache;
  const Strategy strategy = no_push();
  const auto base = cache.key(site, strategy, RunConfig{});

  struct Case {
    const char* field;
    std::function<void(RunConfig&)> perturb;
  };
  const std::vector<Case> keyed = {
      {"net.down_bps", [](RunConfig& c) { c.net.down_bps = 8e6; }},
      {"net.up_bps", [](RunConfig& c) { c.net.up_bps = 2e6; }},
      {"net.base_rtt", [](RunConfig& c) { c.net.base_rtt = sim::from_ms(80); }},
      {"net.queue_capacity", [](RunConfig& c) { c.net.queue_capacity = 1500; }},
      {"net.rtt_jitter_sigma",
       [](RunConfig& c) { c.net.rtt_jitter_sigma = 0.2; }},
      {"net.bw_jitter_sigma",
       [](RunConfig& c) { c.net.bw_jitter_sigma = 0.2; }},
      {"net.max_loss", [](RunConfig& c) { c.net.max_loss = 0.01; }},
      {"net.server_think_mean",
       [](RunConfig& c) { c.net.server_think_mean = sim::from_ms(5); }},
      {"net.dynamic_content_prob",
       [](RunConfig& c) { c.net.dynamic_content_prob = 0.1; }},
      {"browser.enable_push",
       [](RunConfig& c) { c.browser.enable_push = false; }},
      {"browser.cached_urls",
       [](RunConfig& c) {
         c.browser.cached_urls = {"https://www.memo.test/a.css"};
       }},
      {"browser.send_cache_digest",
       [](RunConfig& c) { c.browser.send_cache_digest = true; }},
      {"browser.delayable_throttling",
       [](RunConfig& c) { c.browser.delayable_throttling = true; }},
      {"browser.use_http1", [](RunConfig& c) { c.browser.use_http1 = true; }},
      {"seed", [](RunConfig& c) { c.seed = 2; }},
      {"run_index", [](RunConfig& c) { c.run_index = 1; }},
  };
  for (const auto& k : keyed) {
    RunConfig cfg;
    k.perturb(cfg);
    EXPECT_NE(base, cache.key(site, strategy, cfg)) << k.field;
  }

  // Observers, not inputs: wiring a trace or a cache leaves the key alone.
  trace::TraceRecorder recorder;
  RunCache other;
  RunConfig observed;
  observed.trace = &recorder;
  observed.cache = &other;
  observed.browser.trace = &recorder;
  observed.browser.trace_track = 7;
  EXPECT_EQ(base, cache.key(site, strategy, observed));
}

TEST(RunKey, KeysArePinned) {
  // Stored results outlive the code that wrote them. A change that moves
  // these keys must bump kCacheFormatVersion, then re-pin them here.
  const auto site = fixture_site();
  RunCache cache;

  const RunConfig testbed;
  EXPECT_EQ(cache.key(site, no_push(), testbed).hex(),
            "5c5be0ee2722b284a82bae895e3e334b");

  Strategy interleaved = push_all(site, web::pushable_urls(site));
  interleaved.interleaving = true;
  RunConfig internet;
  internet.net = sim::NetworkConditions::internet();
  EXPECT_EQ(cache.key(site, interleaved, internet).hex(),
            "fbfcbb84c52908489ba625b9b98b58dd");

  RunConfig h1;
  h1.browser.use_http1 = true;
  EXPECT_EQ(cache.key(site, no_push(), h1).hex(),
            "37e8c933c428d31165e04b48611c4c1c");
}

TEST(RunKey, CorpusContentChangesKey) {
  const auto site = fixture_site();
  const auto edited = fixture_site("memo-fixture", /*hero_kb=*/41);
  RunCache cache;
  const Strategy strategy = no_push();
  const RunConfig cfg;
  EXPECT_NE(cache.key(site, strategy, cfg),
            cache.key(edited, strategy, cfg));
  EXPECT_NE(site_content_hash(site), site_content_hash(edited));
}

// ------------------------------------------------------- in-memory caching

TEST(RunCacheMemory, HitReturnsByteIdenticalResult) {
  const auto site = fixture_site();
  RunCache cache;
  RunConfig cfg;
  cfg.cache = &cache;
  const Strategy strategy = no_push();

  const auto first = run_page_load(site, strategy, cfg);
  const auto second = run_page_load(site, strategy, cfg);
  EXPECT_EQ(RunCache::serialize(first), RunCache::serialize(second));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(RunCacheMemory, WarmParallelSweepMatchesColdSerial) {
  const auto site = fixture_site();
  const Strategy strategy = no_push();
  constexpr int kRuns = 6;

  RunConfig plain;
  const auto serial = run_repeated(site, strategy, plain, kRuns);

  RunCache cache;
  RunConfig cfg;
  cfg.cache = &cache;
  ParallelRunner runner(4);
  const auto cold = run_repeated(site, strategy, cfg, kRuns, runner);
  const auto warm = run_repeated(site, strategy, cfg, kRuns, runner);

  ASSERT_EQ(serial.size(), cold.size());
  ASSERT_EQ(serial.size(), warm.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(RunCache::serialize(serial[i]), RunCache::serialize(cold[i]));
    EXPECT_EQ(RunCache::serialize(serial[i]), RunCache::serialize(warm[i]));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kRuns));
}

TEST(RunCacheMemory, SerializeDeserializeRoundTrip) {
  const auto site = fixture_site();
  RunConfig cfg;
  const auto result = run_page_load(site, no_push(), cfg);
  const auto payload = RunCache::serialize(result);
  const auto decoded = RunCache::deserialize(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(payload, RunCache::serialize(*decoded));
  // Trailing garbage is rejected outright.
  EXPECT_FALSE(RunCache::deserialize(payload + "x").has_value());
  EXPECT_FALSE(
      RunCache::deserialize(std::string_view(payload).substr(0, 10))
          .has_value());
}

// ------------------------------------------------------- persistent store

TEST(RunCachePersistent, RoundTripAcrossInstances) {
  const auto dir = fresh_dir("memo_roundtrip");
  const auto site = fixture_site();
  const Strategy strategy = no_push();

  std::string first_payload;
  {
    RunCache::Config config;
    config.dir = dir.string();
    RunCache cache(config);
    RunConfig cfg;
    cfg.cache = &cache;
    first_payload = RunCache::serialize(run_page_load(site, strategy, cfg));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_GT(cache.stats().bytes_written, 0u);
  }
  ASSERT_FALSE(entry_files(dir).empty());

  RunCache::Config config;
  config.dir = dir.string();
  RunCache cache(config);
  RunConfig cfg;
  cfg.cache = &cache;
  const auto reloaded = run_page_load(site, strategy, cfg);
  EXPECT_EQ(first_payload, RunCache::serialize(reloaded));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_GT(stats.bytes_read, 0u);
}

TEST(RunCachePersistent, CorpusEditInvalidatesEntries) {
  const auto dir = fresh_dir("memo_corpus_edit");
  const Strategy strategy = no_push();
  {
    RunCache::Config config;
    config.dir = dir.string();
    RunCache cache(config);
    RunConfig cfg;
    cfg.cache = &cache;
    run_page_load(fixture_site(), strategy, cfg);
  }
  RunCache::Config config;
  config.dir = dir.string();
  RunCache cache(config);
  RunConfig cfg;
  cfg.cache = &cache;
  run_page_load(fixture_site("memo-fixture", /*hero_kb=*/41), strategy, cfg);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RunCachePersistent, TruncatedEntryIsMissNotCrash) {
  const auto dir = fresh_dir("memo_truncated");
  const auto site = fixture_site();
  const Strategy strategy = no_push();
  std::string honest;
  {
    RunCache::Config config;
    config.dir = dir.string();
    RunCache cache(config);
    RunConfig cfg;
    cfg.cache = &cache;
    honest = RunCache::serialize(run_page_load(site, strategy, cfg));
  }
  const auto files = entry_files(dir);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) / 2);

  RunCache::Config config;
  config.dir = dir.string();
  RunCache cache(config);
  RunConfig cfg;
  cfg.cache = &cache;
  const auto result = run_page_load(site, strategy, cfg);
  EXPECT_EQ(honest, RunCache::serialize(result));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_GE(cache.stats().corrupt, 1u);
}

TEST(RunCachePersistent, FlippedPayloadByteFailsChecksum) {
  const auto dir = fresh_dir("memo_bitflip");
  const auto site = fixture_site();
  const Strategy strategy = no_push();
  {
    RunCache::Config config;
    config.dir = dir.string();
    RunCache cache(config);
    RunConfig cfg;
    cfg.cache = &cache;
    run_page_load(site, strategy, cfg);
  }
  const auto files = entry_files(dir);
  ASSERT_EQ(files.size(), 1u);
  {
    std::fstream f(files[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(fs::file_size(files[0])) - 1);
    char last = 0;
    f.seekg(f.tellp());
    f.get(last);
    f.seekp(static_cast<std::streamoff>(fs::file_size(files[0])) - 1);
    f.put(static_cast<char>(last ^ 0x01));
  }

  RunCache::Config config;
  config.dir = dir.string();
  RunCache cache(config);
  RunConfig cfg;
  cfg.cache = &cache;
  run_page_load(site, strategy, cfg);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_GE(cache.stats().corrupt, 1u);
}

// ------------------------------------------------------------- verify mode

TEST(RunCacheVerify, PoisonedEntryThrowsHonestEntryPasses) {
  const auto site = fixture_site();
  const Strategy strategy = no_push();

  {
    // Honest entry: every hit recomputes and passes.
    RunCache::Config config;
    config.verify = CacheVerify::kAll;
    RunCache cache(config);
    RunConfig cfg;
    cfg.cache = &cache;
    run_page_load(site, strategy, cfg);
    EXPECT_NO_THROW(run_page_load(site, strategy, cfg));
    EXPECT_EQ(cache.stats().verified, 1u);
  }

  // Poisoned entry: store the result of a *different* seed under this key.
  RunCache::Config config;
  config.verify = CacheVerify::kAll;
  RunCache cache(config);
  RunConfig cfg;
  cfg.cache = &cache;
  RunConfig other = cfg;
  other.seed = 4242;
  other.cache = nullptr;
  const auto wrong = run_page_load(site, strategy, other);
  cache.store(cache.key(site, strategy, cfg), wrong);
  EXPECT_THROW(run_page_load(site, strategy, cfg), std::runtime_error);
}

}  // namespace
}  // namespace h2push::core
