// Tailoring a push strategy for a real-world-model site (the paper's §5
// workflow): unify same-infrastructure domains, trace the request order,
// extract the critical CSS, build the six strategies and compare them.
//
//   $ ./build/examples/custom_strategy [site-index 1..20]
#include <cstdio>
#include <cstdlib>

#include "core/dependency.h"
#include "core/optimize.h"
#include "core/testbed.h"
#include "stats/descriptive.h"
#include "web/profiles.h"

using namespace h2push;

int main(int argc, char** argv) {
  const int index = argc > 1 ? std::atoi(argv[1]) : 1;
  if (index < 1 || index > 20) {
    std::fprintf(stderr, "usage: %s [1..20]\n", argv[0]);
    return 1;
  }
  const auto named = web::make_w_site(index);
  const auto& site = named.site;
  std::printf("%s (%s): %zu resources across %zu servers, HTML %zu KB\n",
              named.label.c_str(), named.domain.c_str(),
              site.plan.resources.size(), site.origins.server_count(),
              site.plan.html_size / 1024);
  std::printf("pushable objects: %zu\n\n", web::pushable_urls(site).size());

  // Step 1: 15 no-push traces → majority-vote request order (§4.2).
  core::RunConfig cfg;
  const auto order = core::compute_push_order(site, cfg, 15);
  std::printf("computed request order (first 5 of %zu):\n",
              order.order.size());
  for (std::size_t i = 0; i < order.order.size() && i < 5; ++i) {
    std::printf("  %zu. %s\n", i + 1, order.order[i].c_str());
  }

  // Step 2: critical-CSS extraction (the penthouse step).
  const auto arms = core::make_fig6_arms(site, order.order);
  const auto& analysis = arms.optimized.analysis;
  std::printf(
      "\ncritical analysis: %zu B critical CSS out of %zu B; %zu blocking "
      "JS, %zu fonts, %zu above-fold images\n",
      analysis.critical_css_text.size(), analysis.original_css_bytes,
      analysis.blocking_js.size(), analysis.fonts.size(),
      analysis.af_images.size());
  std::printf("interleave offset: %zu bytes\n\n",
              arms.optimized.interleave_offset);

  // Step 3: evaluate all six §5 arms.
  std::printf("%-26s %10s %12s %10s\n", "strategy", "PLT [ms]", "SI [ms]",
              "pushed KB");
  double base_si = 0;
  for (const auto& arm : arms.arms()) {
    const auto series =
        core::collect(core::run_repeated(*arm.site, arm.strategy, cfg, 9));
    if (base_si == 0) base_si = series.si_median();
    std::printf("%-26s %10.1f %12.1f %10.1f   (SI %+.1f%%)\n",
                arm.name.c_str(), series.plt_median(), series.si_median(),
                stats::median(series.bytes_pushed) / 1024.0,
                (series.si_median() - base_si) / base_si * 100.0);
  }
  return 0;
}
