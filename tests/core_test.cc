// Core library tests: strategy construction, critical-CSS analysis, the
// optimized-site transform, dependency-order computation, the adoption
// model, and the interleaving scheduler through the testbed.
#include <gtest/gtest.h>

#include "adoption/adoption.h"
#include "core/critical_css.h"
#include "core/dependency.h"
#include "core/optimize.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "web/profiles.h"
#include "web/transform.h"

namespace h2push::core {
namespace {

web::Site fixture_site() {
  web::PagePlan plan;
  plan.name = "core-fixture";
  plan.primary_host = "www.fixture.test";
  plan.html_size = 20 * 1024;
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
    return plan.resources.size() - 1;
  };
  add("/a.css", http::ResourceType::kCss, 10, P::kHead);
  add("/b.js", http::ResourceType::kJs, 20, P::kHead);
  add("/hero.png", http::ResourceType::kImage, 40, P::kBodyEarly);
  plan.resources.back().above_fold = true;
  add("/mid.png", http::ResourceType::kImage, 30, P::kBodyMiddle);
  add("/third.js", http::ResourceType::kJs, 15, P::kBodyLate,
      "cdn.other.net");
  plan.resources.back().async = true;
  const auto font_idx = add("/f.woff2", http::ResourceType::kFont, 12,
                            P::kFromCss);
  plan.resources[font_idx].css_parent = "/a.css";
  plan.resources[font_idx].font_family = "ff";
  plan.resources[font_idx].above_fold = true;
  return web::build_site(plan);
}

// --------------------------------------------------------------- strategy

TEST(Strategy, NoPushDisablesClientPush) {
  const auto s = no_push();
  EXPECT_FALSE(s.client_push_enabled);
  EXPECT_TRUE(s.push_urls.empty());
}

TEST(Strategy, PushAllFiltersAuthority) {
  const auto site = fixture_site();
  const auto s = push_all(site, web::resource_urls(site));
  EXPECT_TRUE(s.client_push_enabled);
  // third.js lives on a foreign IP: not pushable.
  EXPECT_EQ(s.push_urls.size(), site.plan.resources.size() - 1);
  for (const auto& url : s.push_urls) {
    EXPECT_EQ(url.find("cdn.other.net"), std::string::npos);
  }
}

TEST(Strategy, PushFirstNTruncates) {
  const auto site = fixture_site();
  const auto s = push_first_n(site, web::resource_urls(site), 2);
  EXPECT_EQ(s.push_urls.size(), 2u);
  const auto s10 = push_first_n(site, web::resource_urls(site), 100);
  EXPECT_EQ(s10.push_urls.size(), 5u);  // min(n, pushable)
}

TEST(Strategy, PushTypesSelectsByType) {
  const auto site = fixture_site();
  const auto css_only = push_types(site, web::resource_urls(site),
                                   {http::ResourceType::kCss});
  ASSERT_EQ(css_only.push_urls.size(), 1u);
  EXPECT_NE(css_only.push_urls[0].find("a.css"), std::string::npos);
  const auto images = push_types(site, web::resource_urls(site),
                                 {http::ResourceType::kImage});
  EXPECT_EQ(images.push_urls.size(), 2u);
}

TEST(Strategy, PushRecordedUsesMarkers) {
  auto site = fixture_site();
  // Mark one exchange as pushed in the wild.
  replay::RecordedExchange e = *site.store->find("www.fixture.test", "/a.css");
  e.recorded_pushed = true;
  site.store->add(std::move(e));
  const auto s = push_recorded(site);
  ASSERT_EQ(s.push_urls.size(), 1u);
  EXPECT_NE(s.push_urls[0].find("a.css"), std::string::npos);
}

// ------------------------------------------------------------ critical css

TEST(CriticalCss, FindsBlockingAndAboveFoldResources) {
  const auto site = fixture_site();
  const auto analysis = analyze_critical(site);
  EXPECT_TRUE(analysis.has_blocking_css);
  ASSERT_EQ(analysis.stylesheets.size(), 1u);
  ASSERT_EQ(analysis.blocking_js.size(), 1u);
  EXPECT_EQ(analysis.head_blocking_js, analysis.blocking_js);
  ASSERT_EQ(analysis.af_images.size(), 1u);
  EXPECT_NE(analysis.af_images[0].find("hero.png"), std::string::npos);
  ASSERT_EQ(analysis.fonts.size(), 1u);
  EXPECT_LT(analysis.critical_css_text.size(), analysis.original_css_bytes);
  EXPECT_NE(analysis.critical_css_text.find("@font-face"),
            std::string::npos);
}

TEST(CriticalCss, CriticalRulesMatchAboveFoldElements) {
  const auto site = fixture_site();
  const auto analysis = analyze_critical(site);
  // The hero/paragraph rules survive; the generated filler rules (classes
  // .xN-*) never match above-the-fold elements.
  EXPECT_NE(analysis.critical_css_text.find(".t0"), std::string::npos);
  EXPECT_EQ(analysis.critical_css_text.find(".x0-"), std::string::npos);
}

TEST(CriticalCss, HeadEndOffsetPointsPastHead) {
  const auto site = fixture_site();
  const auto offset = head_end_offset(site);
  const std::string& html = *site.find(site.main_url)->body;
  const auto head_pos = html.find("</head>");
  ASSERT_NE(head_pos, std::string::npos);
  EXPECT_GT(offset, head_pos);
  EXPECT_LT(offset, head_pos + 1024);
}

TEST(Optimize, RestructuresBlockingCss) {
  const auto site = fixture_site();
  const auto optimized = apply_critical_css(site);
  ASSERT_FALSE(optimized.critical_css_url.empty());
  const std::string& html =
      *optimized.site.find(optimized.site.main_url)->body;
  // critical.css is referenced in head; the original stylesheet moved to
  // the end of the body.
  const auto critical_pos = html.find("/critical.css");
  const auto original_pos = html.find("/a.css");
  const auto head_end = html.find("</head>");
  ASSERT_NE(critical_pos, std::string::npos);
  ASSERT_NE(original_pos, std::string::npos);
  EXPECT_LT(critical_pos, head_end);
  EXPECT_GT(original_pos, head_end);
  // The critical.css body is the extracted text.
  const auto* exchange =
      optimized.site.store->find("www.fixture.test", "/critical.css");
  ASSERT_NE(exchange, nullptr);
  EXPECT_EQ(*exchange->body, optimized.analysis.critical_css_text);
}

TEST(Optimize, NoOpWithoutBlockingCss) {
  web::PagePlan plan;
  plan.name = "noblock";
  plan.primary_host = "www.noblock.test";
  plan.html_size = 8 * 1024;
  plan.inline_css_fraction = 0.2;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  const auto site = web::build_site(plan);
  const auto optimized = apply_critical_css(site);
  EXPECT_TRUE(optimized.critical_css_url.empty());
  EXPECT_EQ(optimized.site.plan.resources.size(),
            site.plan.resources.size());
}

TEST(Optimize, Fig6ArmsHaveExpectedShapes) {
  const auto site = fixture_site();
  const auto arms = make_fig6_arms(site, web::resource_urls(site));
  const auto list = arms.arms();
  ASSERT_EQ(list.size(), 6u);
  EXPECT_FALSE(list[0].strategy.client_push_enabled);  // no push
  EXPECT_FALSE(list[1].strategy.client_push_enabled);  // no push optimized
  EXPECT_FALSE(list[2].strategy.interleaving);         // push all (default)
  EXPECT_TRUE(list[3].strategy.interleaving);          // push all optimized
  EXPECT_FALSE(list[4].strategy.interleaving);         // push critical
  EXPECT_TRUE(list[5].strategy.interleaving);          // push crit optimized
  // Optimized arms push critical.css first.
  EXPECT_NE(list[5].strategy.push_urls.front().find("critical.css"),
            std::string::npos);
  // push-all-optimized pushes a superset of push-critical-optimized.
  EXPECT_GE(list[3].strategy.push_urls.size(),
            list[5].strategy.push_urls.size());
}

// ------------------------------------------------------------- dependency

TEST(Dependency, OrderIsStableAndComplete) {
  const auto site = fixture_site();
  RunConfig cfg;
  const auto a = compute_push_order(site, cfg, 5);
  const auto b = compute_push_order(site, cfg, 5);
  EXPECT_EQ(a.order, b.order);  // deterministic
  EXPECT_EQ(a.order.size(), site.plan.resources.size());
  EXPECT_EQ(a.runs.size(), 5u);
}

TEST(Dependency, RenderCriticalResourcesRankEarly) {
  const auto site = fixture_site();
  RunConfig cfg;
  const auto result = compute_push_order(site, cfg, 5);
  std::size_t css_rank = 99, js_rank = 99, mid_img_rank = 0;
  for (std::size_t i = 0; i < result.order.size(); ++i) {
    if (result.order[i].find("a.css") != std::string::npos) css_rank = i;
    if (result.order[i].find("b.js") != std::string::npos) js_rank = i;
    if (result.order[i].find("mid.png") != std::string::npos)
      mid_img_rank = i;
  }
  EXPECT_LT(css_rank, mid_img_rank);
  EXPECT_LT(js_rank, mid_img_rank);
}

// ---------------------------------------------------------------- testbed

TEST(Testbed, PushedBytesMatchStrategyPayload) {
  const auto site = fixture_site();
  RunConfig cfg;
  auto strategy = push_types(site, web::resource_urls(site),
                             {http::ResourceType::kCss});
  const auto result = run_page_load(site, strategy, cfg);
  ASSERT_TRUE(result.complete);
  EXPECT_NEAR(static_cast<double>(result.bytes_pushed), 10 * 1024, 256);
}

TEST(Testbed, CachedUrlCancelsPush) {
  const auto site = fixture_site();
  RunConfig cfg;
  const std::string css_url = "https://www.fixture.test/a.css";
  cfg.browser.cached_urls.insert(css_url);
  auto strategy = push_list("push-cached", {css_url});
  const auto result = run_page_load(site, strategy, cfg);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.pushes_cancelled, 1u);
}

TEST(Testbed, InterleavingDeliversCriticalBeforeParentFinishes) {
  const auto site = fixture_site();
  RunConfig cfg;
  auto strategy = push_list("ilv", {"https://www.fixture.test/a.css"});
  strategy.interleaving = true;
  strategy.interleave_offset = head_end_offset(site);
  const auto result = run_page_load(site, strategy, cfg);
  ASSERT_TRUE(result.complete);
  double css_done = 0, html_done = 0;
  for (const auto& r : result.resources) {
    if (r.url.find("a.css") != std::string::npos) css_done = r.t_complete_ms;
    if (r.url == site.main_url.str()) html_done = r.t_complete_ms;
  }
  EXPECT_LT(css_done, html_done);
}

TEST(Testbed, MetricSeriesSummaries) {
  const auto site = fixture_site();
  RunConfig cfg;
  const auto runs = run_repeated(site, no_push(), cfg, 5);
  ASSERT_EQ(runs.size(), 5u);
  const auto series = collect(runs);
  EXPECT_GT(series.plt_median(), 0.0);
  EXPECT_GT(series.si_median(), 0.0);
  EXPECT_GE(series.plt_std_error(), 0.0);
}

// --------------------------------------------------------------- adoption

TEST(Adoption, MatchesCalibratedEndpoints) {
  adoption::AdoptionModelConfig cfg;
  cfg.population = 200000;
  const auto samples = adoption::simulate_adoption(cfg);
  ASSERT_EQ(samples.size(), 12u);
  const double scale = 1000000.0 / 200000.0;
  EXPECT_NEAR(samples.front().h2_sites * scale, 120000, 15000);
  EXPECT_NEAR(samples.back().h2_sites * scale, 240000, 20000);
  EXPECT_NEAR(samples.front().push_sites * scale, 400, 150);
  EXPECT_NEAR(samples.back().push_sites * scale, 800, 200);
}

TEST(Adoption, MonotoneNonDecreasing) {
  adoption::AdoptionModelConfig cfg;
  cfg.population = 100000;
  const auto samples = adoption::simulate_adoption(cfg);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].h2_sites, samples[i - 1].h2_sites);
    EXPECT_GE(samples[i].push_sites, samples[i - 1].push_sites);
  }
}

TEST(Adoption, PushRequiresH2) {
  adoption::AdoptionModelConfig cfg;
  cfg.population = 100000;
  const auto samples = adoption::simulate_adoption(cfg);
  for (const auto& s : samples) EXPECT_LE(s.push_sites, s.h2_sites);
}

TEST(Adoption, RangePartitionSumsToFullScan) {
  // Draws are counter-based per site, so any chunking of the population
  // (bench_fig1_adoption fans chunks across threads) adds up exactly.
  adoption::AdoptionModelConfig cfg;
  cfg.population = 50000;
  const auto full = adoption::simulate_adoption(cfg);
  std::vector<adoption::MonthlySample> merged(full.size());
  const std::size_t edges[] = {0, 1, 4096, 17000, 50000};
  for (std::size_t c = 0; c + 1 < std::size(edges); ++c) {
    const auto part =
        adoption::simulate_adoption_range(edges[c], edges[c + 1]);
    for (std::size_t m = 0; m < part.size(); ++m) {
      merged[m].month = part[m].month;
      merged[m].h2_sites += part[m].h2_sites;
      merged[m].push_sites += part[m].push_sites;
    }
  }
  for (std::size_t m = 0; m < full.size(); ++m) {
    EXPECT_EQ(full[m].h2_sites, merged[m].h2_sites);
    EXPECT_EQ(full[m].push_sites, merged[m].push_sites);
  }
}

}  // namespace
}  // namespace h2push::core
