// Unit tests for the waterfall renderer, plus cross-cutting determinism
// properties over the corpus. The interleaving hold is tested at the
// connection level (connection_test.cc).
#include <gtest/gtest.h>

#include "core/strategy.h"
#include "core/testbed.h"
#include "core/waterfall.h"
#include "web/corpus.h"

namespace h2push {
namespace {

// ---------------------------------------------------------------- waterfall

browser::PageLoadResult demo_result() {
  web::PagePlan plan;
  plan.name = "wf";
  plan.primary_host = "www.wf.test";
  plan.html_size = 12 * 1024;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  web::ResourcePlan css;
  css.path = "/a.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 8 * 1024;
  css.placement = web::ResourcePlan::Placement::kHead;
  plan.resources.push_back(css);
  const auto site = web::build_site(plan);
  core::RunConfig cfg;
  auto strategy = core::push_list("p", {"https://www.wf.test/a.css"});
  return core::run_page_load(site, strategy, cfg);
}

TEST(Waterfall, RendersAllResourcesAndMetrics) {
  const auto result = demo_result();
  const auto text = core::render_waterfall(result);
  EXPECT_NE(text.find("www.wf.test/"), std::string::npos);
  EXPECT_NE(text.find("a.css"), std::string::npos);
  EXPECT_NE(text.find("[pushed]"), std::string::npos);
  EXPECT_NE(text.find("SpeedIndex"), std::string::npos);
  EXPECT_NE(text.find("PLT"), std::string::npos);
  // One row per resource plus header/legend lines.
  const auto rows = std::count(text.begin(), text.end(), '\n');
  EXPECT_GE(rows, static_cast<long>(result.resources.size()) + 2);
}

TEST(Waterfall, TruncatesLargePages) {
  auto result = demo_result();
  // Inflate artificially.
  while (result.resources.size() < 100) {
    result.resources.push_back(result.resources.back());
  }
  core::WaterfallOptions options;
  options.max_rows = 10;
  const auto text = core::render_waterfall(result, options);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

TEST(Waterfall, EmptyResultDoesNotCrash) {
  browser::PageLoadResult empty;
  EXPECT_NE(core::render_waterfall(empty).find("no resources"),
            std::string::npos);
}

// ------------------------------------------------------------- determinism

TEST(Determinism, WholeCorpusRunsAreReproducible) {
  const auto sites = web::generate_population(
      web::PopulationProfile::random100(), 5, 0xDE7);
  for (const auto& site : sites) {
    core::RunConfig cfg;
    cfg.seed = 99;
    cfg.run_index = 3;
    const auto strategy = core::push_all(site, web::resource_urls(site));
    const auto a = core::run_page_load(site, strategy, cfg);
    const auto b = core::run_page_load(site, strategy, cfg);
    EXPECT_DOUBLE_EQ(a.plt_ms, b.plt_ms) << site.name;
    EXPECT_DOUBLE_EQ(a.speed_index_ms, b.speed_index_ms) << site.name;
    EXPECT_EQ(a.bytes_total, b.bytes_total) << site.name;
    EXPECT_EQ(a.resources.size(), b.resources.size()) << site.name;
    for (std::size_t i = 0; i < a.resources.size(); ++i) {
      EXPECT_EQ(a.resources[i].url, b.resources[i].url);
      EXPECT_DOUBLE_EQ(a.resources[i].t_complete_ms,
                       b.resources[i].t_complete_ms);
    }
  }
}

TEST(Determinism, SeedChangesResults) {
  const auto site = web::build_site(web::generate_page(
      web::PopulationProfile::random100(), "det", 1));
  core::RunConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  const auto a = core::run_page_load(site, core::no_push(), a_cfg);
  const auto b = core::run_page_load(site, core::no_push(), b_cfg);
  EXPECT_NE(a.plt_ms, b.plt_ms);
}

}  // namespace
}  // namespace h2push
