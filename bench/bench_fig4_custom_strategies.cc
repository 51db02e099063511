// Fig. 4: synthetic sites s1–s10, all content deployed on a single server
// (§4.3). Arms: push all (request order) and a custom strategy that pushes
// the resources that appear above the fold or are required to paint it,
// both normalized to no push. Average Δ with 95 % confidence intervals.
// Paper anchors: s1 improves SI by pushing only 309 KB (vs 1057 KB for push
// all); s5 (compute-bound) and s8 (early refs, multi-RTT HTML) show no
// benefit; push all can reduce PLT but rarely SI; no significant harm in
// the single-server setting.
#include "bench/common.h"
#include "core/critical_css.h"
#include "core/dependency.h"
#include "core/runner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "stats/descriptive.h"
#include "web/profiles.h"
#include "web/transform.h"

int main(int argc, char** argv) {
  using namespace h2push;
  const bool quick = bench::quick_mode(argc, argv);
  const int runs = quick ? 9 : 31;
  const int order_runs = quick ? 5 : 15;
  core::ParallelRunner runner(bench::jobs_arg(argc, argv));
  const auto cache = bench::make_cache(argc, argv);
  bench::header("Fig. 4 — custom strategies on synthetic sites s1-s10",
                "Zimmermann et al., CoNEXT'18, Figure 4");
  bench::Stopwatch watch;

  std::printf("%-5s | %21s | %21s | %15s\n", "site", "push all (dSI, dPLT)",
              "custom (dSI, dPLT)", "pushed KB (all/custom)");
  for (int i = 1; i <= 10; ++i) {
    const auto site = web::relocate_single_server(web::make_synthetic_site(i));
    core::RunConfig cfg;
    cfg.cache = cache.get();
    const auto order = core::compute_push_order(site, cfg, order_runs, runner);
    const auto analysis = core::analyze_critical(site);

    // Custom strategy: above-the-fold resources and what is needed to paint
    // them (stylesheets + blocking JS + fonts + hero images).
    std::vector<std::string> custom = analysis.stylesheets;
    for (const auto& url : analysis.critical_resources()) custom.push_back(url);
    auto custom_strategy = core::push_list(
        "custom", core::filter_pushable(site, custom));

    const auto nopush = core::collect(
        core::run_repeated(site, core::no_push(), cfg, runs, runner));
    const auto all_runs = core::run_repeated(
        site, core::push_all(site, order.order), cfg, runs, runner);
    const auto custom_runs =
        core::run_repeated(site, custom_strategy, cfg, runs, runner);
    const auto all = core::collect(all_runs);
    const auto custom_m = core::collect(custom_runs);

    // Average deltas with 95 % CI half-widths (per-run differences against
    // the no-push median, as the paper normalizes to the no-push case).
    auto delta_stats = [&](const core::MetricSeries& s, bool si) {
      std::vector<double> deltas;
      const auto& values = si ? s.speed_index_ms : s.plt_ms;
      const double base = si ? stats::median(nopush.speed_index_ms)
                             : stats::median(nopush.plt_ms);
      for (double v : values) deltas.push_back(v - base);
      return std::make_pair(stats::mean(deltas),
                            stats::ci_half_width(deltas, 0.95));
    };
    const auto [all_dsi, all_dsi_ci] = delta_stats(all, true);
    const auto [all_dplt, all_dplt_ci] = delta_stats(all, false);
    const auto [cu_dsi, cu_dsi_ci] = delta_stats(custom_m, true);
    const auto [cu_dplt, cu_dplt_ci] = delta_stats(custom_m, false);

    std::printf(
        "%-5s | %5.0f±%-4.0f %5.0f±%-4.0f | %5.0f±%-4.0f %5.0f±%-4.0f | "
        "%6.0f / %-6.0f\n",
        site.name.c_str(), all_dsi, all_dsi_ci, all_dplt, all_dplt_ci,
        cu_dsi, cu_dsi_ci, cu_dplt, cu_dplt_ci,
        stats::mean(all.bytes_pushed) / 1024.0,
        stats::mean(custom_m.bytes_pushed) / 1024.0);
  }
  std::printf(
      "\npaper: s1 improves SI with ~309KB custom vs ~1057KB push-all; "
      "s5/s8 show no benefit; PLT often improves, SI rarely; no strong "
      "detriments on a single server\n");
  std::printf("elapsed: %.1fs\n", watch.seconds());
  return 0;
}
