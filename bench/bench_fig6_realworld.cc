// Fig. 6 / Tab. 1: the six §5 strategies on the twenty real-world-model
// sites w1–w20 (same-infrastructure domains unified; critical above-the-
// fold resources hosted on the merged origin). Average relative change vs
// no push, with 99.5 % confidence; Δ < 0 is better.
// Paper anchors: push-critical-optimized improves ≥ 20 % for five sites
// (w1 −68.9 %, w2 −29.7 %, w16 −19.7 % highlighted); w7/w8 blocked by a
// large head JS, w9 favours push-all, w10 suffers image contention with
// inlined JS, w17 dilutes across 369 requests / 81 servers.
#include "bench/common.h"
#include "core/dependency.h"
#include "core/optimize.h"
#include "core/runner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "stats/descriptive.h"
#include "web/profiles.h"

int main(int argc, char** argv) {
  using namespace h2push;
  const bool quick = bench::quick_mode(argc, argv);
  const int runs = quick ? 7 : 31;
  const int order_runs = quick ? 5 : 15;
  const int first = 1, last = 20;
  core::ParallelRunner runner(bench::jobs_arg(argc, argv));
  const auto cache = bench::make_cache(argc, argv);
  bench::header("Fig. 6 — interleaving push strategies on w1-w20",
                "Zimmermann et al., CoNEXT'18, Figure 6 and Table 1");
  bench::Stopwatch watch;

  std::printf(
      "%-4s %-12s | %9s %9s %9s %9s %9s | %9s\n", "site", "domain",
      "np-opt", "all", "all-opt", "crit", "crit-opt", "pushedKB");
  std::printf("%.120s\n",
              "------------------------------------------------------------"
              "------------------------------------------------------------");

  int improved_20 = 0;
  for (int i = first; i <= last; ++i) {
    const auto named = web::make_w_site(i);
    const auto& site = named.site;
    core::RunConfig cfg;
    cfg.cache = cache.get();
    const auto order = core::compute_push_order(site, cfg, order_runs, runner);
    const auto arms = core::make_fig6_arms(site, order.order);

    double base_si = 0;
    double rel[6] = {0};
    double ci[6] = {0};
    double crit_opt_pushed_kb = 0;
    int a = 0;
    std::vector<double> base_runs;
    for (const auto& arm : arms.arms()) {
      const auto results = core::run_repeated(*arm.site, arm.strategy, cfg,
                                              runs, runner);
      const auto series = core::collect(results);
      if (a == 0) {
        base_runs = series.speed_index_ms;
        base_si = stats::mean(base_runs);
      }
      std::vector<double> rel_changes;
      for (double v : series.speed_index_ms) {
        rel_changes.push_back((v - base_si) / base_si * 100.0);
      }
      rel[a] = stats::mean(rel_changes);
      ci[a] = stats::ci_half_width(rel_changes, 0.995);
      if (a == 5) {
        crit_opt_pushed_kb = stats::mean(series.bytes_pushed) / 1024.0;
        if (rel[a] <= -20.0) ++improved_20;
      }
      ++a;
    }
    std::printf(
        "%-4s %-12s | %8.1f%% %8.1f%% %8.1f%% %8.1f%% %6.1f%%±%-3.1f | "
        "%9.1f\n",
        named.label.c_str(), named.domain.c_str(), rel[1], rel[2], rel[3],
        rel[4], rel[5], ci[5], crit_opt_pushed_kb);
  }
  std::printf(
      "\nsites with >=20%% SI improvement (push critical optimized): %d "
      "(paper: 5 of 20)\n",
      improved_20);
  std::printf(
      "paper highlights: w1 -68.9%% (78KB pushed), w2 -29.7%% (290KB), "
      "w16 -19.7%% (10KB); w7/w8/w10/w17 <10%% or worse\n");
  std::printf("columns are avg relative SI change vs no push (99.5%% CI "
              "computed, +/- omitted for width)\n");
  std::printf("elapsed: %.1fs\n", watch.seconds());
  return 0;
}
