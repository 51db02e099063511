// Tests for the §6 strategy learner.
#include <gtest/gtest.h>

#include "core/learner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "web/profiles.h"
#include "web/site.h"

namespace h2push::core {
namespace {

web::Site blocking_site() {
  web::PagePlan plan;
  plan.name = "learner-site";
  plan.primary_host = "www.learn.test";
  plan.html_size = 120 * 1024;  // big HTML: interleaving should win
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  web::ResourcePlan css;
  css.path = "/main.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 40 * 1024;
  css.placement = web::ResourcePlan::Placement::kHead;
  plan.resources.push_back(css);
  web::ResourcePlan font;
  font.path = "/f.woff2";
  font.host = plan.primary_host;
  font.type = http::ResourceType::kFont;
  font.size = 25 * 1024;
  font.placement = web::ResourcePlan::Placement::kFromCss;
  font.css_parent = "/main.css";
  font.font_family = "ff";
  font.above_fold = true;
  plan.resources.push_back(font);
  return web::build_site(plan);
}

web::Site optimal_site() {
  web::PagePlan plan;
  plan.name = "already-fast";
  plan.primary_host = "www.fast.test";
  plan.html_size = 8 * 1024;
  plan.inline_css_fraction = 0.2;  // nothing render-blocking
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  return web::build_site(plan);
}

TEST(Learner, PicksInterleavingForBlockingSite) {
  RunConfig cfg;
  LearnerConfig lc;
  lc.runs_per_candidate = 3;
  lc.order_runs = 3;
  const auto output = learn_strategy(blocking_site(), cfg, lc);
  EXPECT_TRUE(output.best.strategy.interleaving)
      << "picked " << output.best.strategy.name;
  EXPECT_LT(output.best.result.si_vs_baseline, -0.05);
  EXPECT_GE(output.all.size(), 8u);  // evaluated a real candidate family
}

TEST(Learner, FallsBackToNoPushWhenNothingHelps) {
  RunConfig cfg;
  LearnerConfig lc;
  lc.runs_per_candidate = 3;
  lc.order_runs = 3;
  const auto output = learn_strategy(optimal_site(), cfg, lc);
  EXPECT_EQ(output.best.strategy.name, "no-push");
  EXPECT_FALSE(output.best.use_optimized_site);
}

TEST(Learner, LeaderboardIsSortedBySpeedIndex) {
  RunConfig cfg;
  LearnerConfig lc;
  lc.runs_per_candidate = 3;
  lc.order_runs = 3;
  const auto output = learn_strategy(blocking_site(), cfg, lc);
  for (std::size_t i = 1; i < output.all.size(); ++i) {
    EXPECT_LE(output.all[i - 1].si_ms, output.all[i].si_ms);
  }
}

}  // namespace
}  // namespace h2push::core
