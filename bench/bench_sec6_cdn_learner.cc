// §6 "Use in CDN Deployments": the paper proposes that a CDN could use the
// replay testbed to learn website-specific (interleaving) push strategies
// automatically. This bench runs that loop for every w-site: enumerate a
// structure-derived candidate family, evaluate each in the testbed, deploy
// the winner — and compares the learned strategy against no-push and
// against the hand-tailored push-critical-optimized arm of Fig. 6.
#include <algorithm>
#include <vector>

#include "bench/common.h"
#include "core/dependency.h"
#include "core/learner.h"
#include "core/runner.h"
#include "core/optimize.h"
#include "core/testbed.h"
#include "stats/descriptive.h"
#include "web/profiles.h"

using namespace h2push;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const int first = 1, last = quick ? 6 : 20;
  const int verify_runs = quick ? 7 : 15;
  core::ParallelRunner runner(bench::jobs_arg(argc, argv));
  const auto cache = bench::make_cache(argc, argv);
  bench::header("§6 — CDN-style automatic strategy learning on w1-w20",
                "Zimmermann et al., CoNEXT'18, Section 6 proposal");
  bench::Stopwatch watch;

  bench::BenchReport report;
  report.name = "sec6_cdn_learner";
  report.runs = verify_runs;
  report.jobs = runner.jobs();
  std::vector<double> si_medians, plt_medians;

  std::printf("%-4s %-13s | %-18s %9s | %9s %9s\n", "site", "domain",
              "learned strategy", "SI vs np", "hand-crafted", "candidates");
  int learner_wins = 0, ties = 0;
  for (int i = first; i <= last; ++i) {
    const auto named = web::make_w_site(i);
    core::RunConfig cfg;
    cfg.cache = cache.get();
    core::LearnerConfig lc;
    if (quick) {
      lc.runs_per_candidate = 5;
      lc.order_runs = 5;
    }
    const auto learned = core::learn_strategy(named.site, cfg, lc, &runner);

    // The hand-tailored Fig.-6 arm for comparison.
    const auto order = core::compute_push_order(named.site, cfg,
                                                quick ? 5 : 9, runner);
    const auto arms = core::make_fig6_arms(named.site, order.order);
    const auto hand_arm = arms.arms()[5];  // push critical optimized
    const auto hand = core::collect(core::run_repeated(
        *hand_arm.site, hand_arm.strategy, cfg, verify_runs, runner));
    const auto baseline = core::collect(core::run_repeated(
        named.site, core::no_push(), cfg, verify_runs, runner));
    const double hand_rel =
        (hand.si_median() - baseline.si_median()) / baseline.si_median();
    si_medians.push_back(baseline.si_median());
    plt_medians.push_back(baseline.plt_median());
    // learn_strategy evaluates |candidates| × runs_per_candidate plus its
    // internal order runs; the comparison arms add 2 × verify_runs plus the
    // explicit push-order replays.
    report.total_loads += learned.all.size() *
                              static_cast<std::uint64_t>(lc.runs_per_candidate) +
                          static_cast<std::uint64_t>(lc.order_runs) +
                          static_cast<std::uint64_t>(quick ? 5 : 9) +
                          2 * static_cast<std::uint64_t>(verify_runs);

    std::printf("%-4s %-13s | %-18s %8.1f%% | %11.1f%% %9zu\n",
                named.label.c_str(), named.domain.c_str(),
                learned.best.strategy.name.c_str(),
                learned.best.result.si_vs_baseline * 100, hand_rel * 100,
                learned.all.size());
    if (learned.best.result.si_vs_baseline < hand_rel - 0.02) {
      ++learner_wins;
    } else if (learned.best.result.si_vs_baseline < hand_rel + 0.02) {
      ++ties;
    }
  }
  std::printf(
      "\nlearned strategy beats the hand-tailored arm on %d sites, ties on "
      "%d (of %d)\n",
      learner_wins, ties, last - first + 1);
  std::printf(
      "The learner never deploys a losing strategy: candidates that do not\n"
      "beat no-push by >2%% fall back to no-push — automating the paper's\n"
      "conclusion that non-site-specific adoption can easily hurt.\n");
  std::printf("elapsed: %.1fs\n", watch.seconds());
  report.elapsed_s = watch.seconds();
  auto median_of = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  report.median_si_ms = median_of(si_medians);
  report.median_plt_ms = median_of(plt_medians);
  report.extra["learner_wins"] = learner_wins;
  report.extra["learner_ties"] = ties;
  bench::add_cache_stats(report, cache.get());
  bench::write_report(report);
  return 0;
}
