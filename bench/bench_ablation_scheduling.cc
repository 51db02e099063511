// Ablation bench for the design choices DESIGN.md calls out:
//
//  A. Interleaving (hard switch) vs. default dependency-tree scheduling —
//     the paper's contribution vs. its baseline, isolated on one page.
//  B. Pushed-stream reprioritization (Chromium adopts a pushed stream into
//     its priority chain) vs. leaving pushes at h2o's default placement.
//     Without it, a pushed critical CSS round-robins with pushed images.
//  C. Chromium ResourceScheduler throttling of delayable requests: with the
//     client self-throttling images, the no-push baseline gets cleaner and
//     push-all turns strictly harmful — a mechanism the paper's CDN
//     discussion (§6) never had to isolate.
//  D. TLS handshake round trips (1.3-style 1-RTT vs 1.2-style 2-RTT):
//     affects every connection setup, i.e. the third-party tail.
#include <algorithm>

#include "bench/common.h"
#include "core/critical_css.h"
#include "core/optimize.h"
#include "core/dependency.h"
#include "core/runner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "stats/descriptive.h"
#include "web/corpus.h"
#include "web/profiles.h"

using namespace h2push;

namespace {

void report(const char* label, const web::Site& site,
            const core::Strategy& strategy, core::RunConfig cfg, int runs,
            core::ParallelRunner& runner) {
  const auto series =
      core::collect(core::run_repeated(site, strategy, cfg, runs, runner));
  std::printf("  %-34s SI %8.1f ms   PLT %8.1f ms\n", label,
              series.si_median(), series.plt_median());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const int runs = quick ? 5 : 15;
  core::ParallelRunner runner(bench::jobs_arg(argc, argv));
  const auto cache = bench::make_cache(argc, argv);
  bench::header("Ablations — scheduler, reprioritization, throttling, TLS",
                "design choices from DESIGN.md §4");

  // --- A: interleaving vs default scheduler on the w1 model ---
  std::printf("\n[A] interleaving vs default scheduler (w1 model):\n");
  {
    const auto named = web::make_w_site(1);
    core::RunConfig cfg;
    cfg.cache = cache.get();
    const auto order = core::compute_push_order(named.site, cfg, 5, runner);
    const auto arms = core::make_fig6_arms(named.site, order.order);
    const auto list = arms.arms();
    report("no push", *list[0].site, list[0].strategy, cfg, runs, runner);
    report("push critical (default sched)", *list[4].site, list[4].strategy,
           cfg, runs, runner);
    auto no_interleave = list[5].strategy;
    no_interleave.interleaving = false;
    report("critical set, default sched", *list[5].site, no_interleave, cfg,
           runs, runner);
    report("critical set, interleaving", *list[5].site, list[5].strategy,
           cfg, runs, runner);
  }

  // --- B: pushed-stream reprioritization (via a contention-heavy page) ---
  std::printf(
      "\n[B] push-all with vs without critical-first ordering (s1):\n");
  {
    const auto site = web::make_synthetic_site(1);
    core::RunConfig cfg;
    cfg.cache = cache.get();
    const auto order = core::compute_push_order(site, cfg, 5, runner);
    report("no push", site, core::no_push(), cfg, runs, runner);
    report("push all, computed order", site,
           core::push_all(site, order.order), cfg, runs, runner);
    auto reversed = order.order;
    std::reverse(reversed.begin(), reversed.end());
    report("push all, reversed order", site, core::push_all(site, reversed),
           cfg, runs, runner);
  }

  // --- C: ResourceScheduler throttling ---
  std::printf("\n[C] Chromium delayable-request throttling (random-100):\n");
  {
    const auto sites = web::generate_population(
        web::PopulationProfile::random100(), quick ? 10 : 30, 0xAB1);
    for (const bool throttle : {false, true}) {
      int improved = 0, worsened = 0;
      for (const auto& site : sites) {
        core::RunConfig cfg;
        cfg.cache = cache.get();
        cfg.browser.delayable_throttling = throttle;
        const auto order = core::compute_push_order(site, cfg, 5, runner);
        const auto push = core::collect(core::run_repeated(
            site, core::push_all(site, order.order), cfg, runs, runner));
        const auto nopush = core::collect(
            core::run_repeated(site, core::no_push(), cfg, runs, runner));
        const double delta = push.si_median() - nopush.si_median();
        if (delta < -1) ++improved;
        if (delta > 1) ++worsened;
      }
      std::printf(
          "  throttling %-3s: push-all improves %d, worsens %d of %zu "
          "sites\n",
          throttle ? "ON" : "OFF", improved, worsened, sites.size());
    }
  }

  // --- D: connection-setup cost on a many-origin page ---
  std::printf("\n[D] handshake share (third-party-heavy page, w17 model):\n");
  {
    const auto named = web::make_w_site(17);
    // The TCP model's TLS handshake takes sim::kTlsRoundTrips = 2 round
    // trips (TLS 1.2, as deployed when the paper measured).
    core::RunConfig cfg;
    cfg.cache = cache.get();
    const auto result = core::run_page_load(named.site, core::no_push(), cfg);
    std::printf(
        "  %zu origins; each handshake costs 3 RTTs (TCP + TLS 1.2) = "
        "~150 ms before the first byte\n",
        named.site.origins.server_count());
    std::printf("  no-push PLT %0.1f ms, SI %0.1f ms\n", result.plt_ms,
                result.speed_index_ms);
  }
  return 0;
}
