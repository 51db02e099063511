// Fig. 1: adoption of HTTP/2 and Server Push over 2017 on the Alexa 1M.
// Paper anchors: H2 grows ~120K → ~240K sites; push sites ~400 → ~800 —
// push adoption orders of magnitude below H2 adoption.
#include <algorithm>
#include <vector>

#include "adoption/adoption.h"
#include "bench/common.h"
#include "core/runner.h"

int main(int argc, char** argv) {
  using namespace h2push;
  bench::header("Fig. 1 — H2 and Server Push adoption over one year",
                "Zimmermann et al., CoNEXT'18, Figure 1");
  adoption::AdoptionModelConfig cfg;
  if (bench::quick_mode(argc, argv)) cfg.population = 100000;
  core::ParallelRunner runner(bench::jobs_arg(argc, argv));
  bench::Stopwatch watch;

  // Per-site draws are counter-based in (seed, site index), so the scan
  // splits into ranges whose per-month counts simply add up — identical
  // totals for any chunking / jobs value.
  const std::size_t chunks =
      std::min<std::size_t>(64, std::max<std::size_t>(
                                    1, static_cast<std::size_t>(runner.jobs()) * 4));
  const std::size_t stride = (cfg.population + chunks - 1) / chunks;
  const auto partials = runner.map<std::vector<adoption::MonthlySample>>(
      chunks, [&](std::size_t c) {
        const std::size_t begin = c * stride;
        const std::size_t end = std::min(cfg.population, begin + stride);
        return adoption::simulate_adoption_range(begin, std::max(begin, end));
      });
  std::vector<adoption::MonthlySample> samples(
      static_cast<std::size_t>(adoption::kScanMonths));
  for (int m = 0; m < adoption::kScanMonths; ++m) {
    samples[static_cast<std::size_t>(m)].month = m;
  }
  for (const auto& part : partials) {
    for (const auto& s : part) {
      samples[static_cast<std::size_t>(s.month)].h2_sites += s.h2_sites;
      samples[static_cast<std::size_t>(s.month)].push_sites += s.push_sites;
    }
  }
  const double scale =
      static_cast<double>(1000000) / static_cast<double>(cfg.population);

  static const char* kMonths[] = {"J", "F", "M", "A", "M", "J",
                                  "J", "A", "S", "O", "N", "D"};
  std::printf("%-6s %12s %12s\n", "month", "h2 sites", "push sites");
  for (const auto& s : samples) {
    std::printf("%-6s %12.0f %12.0f\n", kMonths[s.month % 12],
                static_cast<double>(s.h2_sites) * scale,
                static_cast<double>(s.push_sites) * scale);
  }
  const auto& first = samples.front();
  const auto& last = samples.back();
  std::printf("\npaper: H2 120K -> 240K, push ~400 -> ~800 (ratio ~300x)\n");
  std::printf("ours : H2 %.0fK -> %.0fK, push %.0f -> %.0f (ratio %.0fx)\n",
              first.h2_sites * scale / 1000.0, last.h2_sites * scale / 1000.0,
              first.push_sites * scale, last.push_sites * scale,
              static_cast<double>(last.h2_sites) /
                  std::max<std::size_t>(1, last.push_sites));
  std::printf("elapsed: %.2fs at jobs=%d\n", watch.seconds(), runner.jobs());
  return 0;
}
