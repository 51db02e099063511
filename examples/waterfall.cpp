// Command-line page-load inspector: replay any built-in site under any
// strategy and print the metrics plus an ASCII waterfall — the workflow
// the paper's authors used ("by manual inspection of the page load
// process", §4.3) when tailoring per-site strategies.
//
//   $ ./build/examples/waterfall w1 push-critical-optimized
//   $ ./build/examples/waterfall s5 push-all
//   $ ./build/examples/waterfall quickstart no-push
//
// Sites: w1..w20, s1..s10, quickstart.
// Strategies: no-push, push-all, push-critical, push-critical-optimized,
//             hint-all, learned (runs the §6 strategy learner first).
#include <cstdio>
#include <cstring>
#include <string>

#include "core/dependency.h"
#include "core/optimize.h"
#include "core/learner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "core/waterfall.h"
#include "web/profiles.h"

using namespace h2push;

namespace {

web::Site load_site(const std::string& name) {
  if (name.size() >= 2 && name[0] == 'w') {
    const int index = std::atoi(name.c_str() + 1);
    if (index < 1 || index > 20) {
      std::fprintf(stderr, "w-sites are w1..w20\n");
      std::exit(1);
    }
    return web::make_w_site(index).site;
  }
  if (name.size() >= 2 && name[0] == 's') {
    const int index = std::atoi(name.c_str() + 1);
    if (index < 1 || index > 10) {
      std::fprintf(stderr, "synthetic sites are s1..s10\n");
      std::exit(1);
    }
    return web::make_synthetic_site(index);
  }
  // Fallback demo page.
  web::PagePlan plan;
  plan.name = "quickstart";
  plan.primary_host = "www.quickstart.example";
  plan.html_size = 64 * 1024;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  web::ResourcePlan css;
  css.path = "/site.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 28 * 1024;
  css.placement = web::ResourcePlan::Placement::kHead;
  plan.resources.push_back(css);
  web::ResourcePlan hero;
  hero.path = "/hero.jpg";
  hero.host = plan.primary_host;
  hero.type = http::ResourceType::kImage;
  hero.size = 70 * 1024;
  hero.placement = web::ResourcePlan::Placement::kBodyEarly;
  hero.above_fold = true;
  plan.resources.push_back(hero);
  return web::build_site(plan);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string site_name = argc > 1 ? argv[1] : "w1";
  const std::string strategy_name =
      argc > 2 ? argv[2] : "push-critical-optimized";

  const auto site = load_site(site_name);
  core::RunConfig cfg;

  core::Strategy strategy = core::no_push();
  const web::Site* run_site = &site;
  core::OptimizedSite optimized;  // keep alive when used
  if (strategy_name != "no-push") {
    const auto order = core::compute_push_order(site, cfg, 9);
    if (strategy_name == "push-all") {
      strategy = core::push_all(site, order.order);
    } else if (strategy_name == "hint-all") {
      strategy = core::hint_all(site, order.order);
    } else if (strategy_name == "learned") {
      auto learned = core::learn_strategy(site, cfg);
      std::printf("learner evaluated %zu candidates; picked '%s' "
                  "(SI %+.1f%% vs no-push)\n",
                  learned.all.size(), learned.best.strategy.name.c_str(),
                  learned.best.result.si_vs_baseline * 100);
      strategy = learned.best.strategy;
      optimized = std::move(learned.optimized);
      if (learned.best.use_optimized_site) run_site = &optimized.site;
    } else if (strategy_name == "push-critical" ||
               strategy_name == "push-critical-optimized") {
      auto arms = core::make_fig6_arms(site, order.order);
      const auto list = arms.arms();
      const auto& arm =
          strategy_name == "push-critical" ? list[4] : list[5];
      strategy = arm.strategy;
      optimized = std::move(arms.optimized);
      run_site = strategy_name == "push-critical" ? &site : &optimized.site;
    } else {
      std::fprintf(stderr, "unknown strategy '%s'\n", strategy_name.c_str());
      return 1;
    }
  }

  std::printf("site %s, strategy %s (%zu push urls, %zu hint urls%s)\n\n",
              site_name.c_str(), strategy.name.c_str(),
              strategy.push_urls.size(), strategy.hint_urls.size(),
              strategy.interleaving ? ", interleaving" : "");
  const auto result = core::run_page_load(*run_site, strategy, cfg);
  if (!result.complete) {
    std::fprintf(stderr, "page load did not complete!\n");
  }
  std::fputs(core::render_waterfall(result).c_str(), stdout);
  return result.complete ? 0 : 2;
}
